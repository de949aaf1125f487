# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled hot kernels.

Must stay bit-identical to idastra._kernels_py; the test suite compares
the two backends call for call.
"""

from libc.stdint cimport int64_t, uint64_t
from libc.string cimport memcpy

BACKEND = "compiled"

GOAL_TILES = bytes(range(16))

cdef int _MD_FLAT[256]
# _DEST[blank * 4 + op]: the blank's cell after op, or -1 when op would
# move it off the board (ops: 0=Up, 1=Left, 2=Right, 3=Down)
cdef int _DEST[64]

cdef int _t, _p
for _t in range(16):
    for _p in range(16):
        _MD_FLAT[_t * 16 + _p] = (abs(_p // 4 - _t // 4)
                                  + abs(_p % 4 - _t % 4))
for _p in range(16):
    _DEST[_p * 4 + 0] = _p - 4 if _p >= 4 else -1
    _DEST[_p * 4 + 1] = _p - 1 if _p % 4 != 0 else -1
    _DEST[_p * 4 + 2] = _p + 1 if _p % 4 != 3 else -1
    _DEST[_p * 4 + 3] = _p + 4 if _p < 12 else -1

cdef uint64_t _GAMMA = 0x9E3779B97F4A7C15U


def manhattan(bytes tiles):
    """Sum of tile distances from home; the blank does not count."""
    cdef int total = 0
    cdef int pos, t
    cdef const unsigned char* p = tiles
    for pos in range(16):
        t = p[pos]
        if t:
            total += _MD_FLAT[t * 16 + pos]
    return total


def puzzle_expand(bytes tiles, int blank, int h, int prev_op, bytes order):
    """Expand a puzzle state; see the pure-Python twin for the contract:
    a list of ((tiles, blank), op, 1, h) children."""
    cdef int skip = 3 - prev_op if prev_op >= 0 else -1
    cdef Py_ssize_t i
    cdef int op, dest, t
    cdef const unsigned char* po = order
    cdef const unsigned char* pt = tiles
    cdef unsigned char buf[16]
    out = []
    for i in range(len(order)):
        op = po[i]
        if op == skip:
            continue
        dest = _DEST[blank * 4 + op]
        if dest < 0:
            continue
        t = pt[dest]
        memcpy(buf, pt, 16)
        buf[blank] = <unsigned char>t
        buf[dest] = 0
        out.append(((bytes(buf[:16]), dest), op, 1,
                    h + _MD_FLAT[t * 16 + blank] - _MD_FLAT[t * 16 + dest]))
    return out


cdef inline uint64_t _mix(uint64_t z):
    z = (z ^ (z >> 30)) * <uint64_t>0xBF58476D1CE4E5B9U
    z = (z ^ (z >> 27)) * <uint64_t>0x94D049BB133111EBU
    return z ^ (z >> 31)


def path_hash(seed, tag, bytes path):
    """Seeded 64-bit hash of a byte path, with independent tag streams."""
    cdef uint64_t h = _mix(<uint64_t>(<int64_t>seed) + _GAMMA * (<uint64_t>(<int64_t>tag) + 1))
    cdef const unsigned char* p = path
    cdef Py_ssize_t i
    for i in range(len(path)):
        h = _mix(h + _GAMMA * (<uint64_t>p[i] + 1))
    return h
