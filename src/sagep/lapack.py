"""The four LAPACK routines sagep calls, from scipy's own compiled `_flapack`
extension, loaded without importing `scipy.linalg`.

That package's `__init__` costs about 0.2 s on a 2-vCPU host, most of it in
scipy's array-API layer, which imports every numpy submodule; the extension
alone costs milliseconds.  The routines are scipy's f2py wrappers
themselves, so their arguments, library and bits are those of
`scipy.linalg.lapack`.
"""

import importlib.machinery
import importlib.util

import scipy

__all__ = ["dgtsv", "dpotrf", "dpotrs", "dtrtrs"]

_dirs = [f"{path}/linalg" for path in scipy.__path__]
_spec = importlib.machinery.PathFinder.find_spec("_flapack", _dirs)
if _spec is None:
    raise ImportError(f"scipy's _flapack extension not found in {_dirs}")
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)

dgtsv, dpotrf, dpotrs, dtrtrs = (_flapack.dgtsv, _flapack.dpotrf,
                                 _flapack.dpotrs, _flapack.dtrtrs)
