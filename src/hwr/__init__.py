"""Writer-independent holistic handwritten-word recognizer.

Pipeline: preprocess word images to the canonical 64x128 grayscale raster,
extract HOG descriptors, reduce dimensionality (PCA or random projection),
classify with an MLP, RBF-SVM, or random forest, and interpret the predicted
class id as a Malayalam district name.

Importing the package pins numpy's bundled OpenBLAS to one thread, in this
process and in every worker it forks, so that results do not depend on the
thread count.
"""

from . import workers

if (_openblas := workers.openblas()) is not None:
    _openblas.scipy_openblas_set_num_threads64_(1)

__version__ = "0.1.0"
