"""SHA-256 and BLAKE2b from CPython's builtins, so hashing loads no OpenSSL.

The bytes are :mod:`hashlib`'s; a build without the builtin modules falls
back to it, as :mod:`random` does for ``_sha512``.
"""

try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

__all__ = ["blake2b", "sha256"]
