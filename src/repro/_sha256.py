"""SHA-256 from CPython's built-in hash module, without loading OpenSSL.

``hashlib`` maps and initialises OpenSSL (~3.6 MB resident) even to hash
a few bytes.  The built-in ``_sha2`` (3.12+) and ``_sha256`` (3.10-3.11)
modules give bit-identical digests; the stdlib's own ``random`` imports
its SHA-512 the same way.  Every digest in the package comes from here.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without built-in hash modules
        from hashlib import sha256

__all__ = ["sha256"]
