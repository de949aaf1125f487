/* Compiled synthetic_expand, the artificial-tree kernel of
 * idastra._kernels_py in C, through the CPython API.
 *
 * It takes the same arguments, expands to the same children in the same
 * push and prune order, returns GOAL or () at a leaf and otherwise the
 * same index tuple, and raises where the Python kernel's inputs are
 * malformed.  A child's key is one hash_step of its parent's in each
 * 64-bit lane, stepped on two plain uint64_t values, as the Python
 * kernel steps them.
 *
 * idastra._backend builds this file on first import with the
 * interpreter's own compiler and headers (see its docstring).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
/* hash_step's two mixing multipliers */
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
/* bound on g, shared and d, so that no distance or f overflows */
#define SMALL (1LL << 60)
/* most children of one node: a child index is one byte of a path */
#define MAX_CHILDREN 256

static PyObject *GOAL;      /* idastra.core.GOAL */
static PyObject *ZERO;

static uint64_t
hash_step(uint64_t h, unsigned c)
{
    uint64_t z = h + GAMMA * (uint64_t)(c + 1);
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

static uint64_t
get_le64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; i--)
        v = v << 8 | p[i];
    return v;
}

static void
put_le64(unsigned char *p, uint64_t v)
{
    for (int i = 0; i < 8; i++, v >>= 8)
        p[i] = (unsigned char)v;
}

/* A key's error lane (bits 0-63) and goal lane (bits 128-191).  A key
 * must be a non-negative int below 2^256. */
static int
key_lanes(PyObject *key, uint64_t *err, uint64_t *goal)
{
    unsigned char buf[32];
#if PY_VERSION_HEX >= 0x030D0000
    Py_ssize_t n = PyLong_AsNativeBytes(
        key, buf, 32, Py_ASNATIVEBYTES_LITTLE_ENDIAN
        | Py_ASNATIVEBYTES_UNSIGNED_BUFFER
        | Py_ASNATIVEBYTES_REJECT_NEGATIVE);
    if (n < 0)
        return -1;
    if (n > 32) {
        PyErr_SetString(PyExc_OverflowError, "key is not below 2**256");
        return -1;
    }
#else
    if (_PyLong_AsByteArray((PyLongObject *)key, buf, 32, 1, 0) < 0)
        return -1;
#endif
    *err = get_le64(buf);
    *goal = get_le64(buf + 16);
    return 0;
}

/* The key err | goal << 128. */
static PyObject *
make_key(uint64_t err, uint64_t goal)
{
    unsigned char buf[24];
    put_le64(buf, err);
    memset(buf + 8, 0, 8);
    put_le64(buf + 16, goal);
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(buf, 24,
                                          Py_ASNATIVEBYTES_LITTLE_ENDIAN);
#else
    return _PyLong_FromByteArray(buf, 24, 1, 0);
#endif
}

static PyObject *
malformed(const char *what)
{
    PyErr_Format(PyExc_TypeError, "synthetic_expand: %s", what);
    return NULL;
}

/* An int field within +-SMALL. */
static int
small_int(PyObject *obj, const char *name, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v > SMALL || v < -SMALL) {
        PyErr_Format(PyExc_OverflowError, "synthetic_expand: %s is out of "
                     "range", name);
        return -1;
    }
    *out = v;
    return 0;
}

/* The int threshold as a bound that every f compares with as it does
 * with the threshold: one beyond long long clamps to the end it lies
 * past, since no f reaches either end. */
static int
threshold_bound(PyObject *threshold, long long *out)
{
    if (!PyLong_Check(threshold)) {
        malformed("threshold must be an int");
        return -1;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(threshold, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : v;
    return 0;
}

/* herror + 1 as a modulus; *big is set where it is 2^64 or more, so
 * that a lane's remainder is the lane itself. */
static int
error_modulus(PyObject *emod, uint64_t *out, int *big)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(emod, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *big = 0;
    if (overflow > 0) {
        *out = PyLong_AsUnsignedLongLong(emod);
        if (*out == (uint64_t)-1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                return -1;
            PyErr_Clear();
            *big = 1;
        }
        return 0;
    }
    if (overflow < 0 || v < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "synthetic_expand: emod must be at least 1");
        return -1;
    }
    *out = (uint64_t)v;
    return 0;
}

static int
call_one(PyObject *fn, PyObject *arg)
{
    PyObject *r = PyObject_CallOneArg(fn, arg);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* The child node ((path + bytes((c,)), shared, key), g, h, op, parent),
 * path being len - 1 bytes at p; g and op are borrowed. */
static PyObject *
make_child(const char *p, Py_ssize_t len, unsigned char c,
           long long shared, uint64_t err, uint64_t goal, PyObject *g,
           long long h, PyObject *op, PyObject *parent)
{
    PyObject *path = PyBytes_FromStringAndSize(NULL, len);
    if (path == NULL)
        return NULL;
    memcpy(PyBytes_AS_STRING(path), p, len - 1);
    PyBytes_AS_STRING(path)[len - 1] = (char)c;
    PyObject *state = PyTuple_New(3);
    if (state == NULL) {
        Py_DECREF(path);
        return NULL;
    }
    PyTuple_SET_ITEM(state, 0, path);
    PyObject *item = PyLong_FromLongLong(shared);
    if (item == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(state, 1, item);
    item = make_key(err, goal);
    if (item == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(state, 2, item);
    PyObject *child = PyTuple_New(5);
    if (child == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(child, 0, state);
    PyTuple_SET_ITEM(child, 1, Py_NewRef(g));
    PyTuple_SET_ITEM(child, 3, Py_NewRef(op));
    PyTuple_SET_ITEM(child, 4, Py_NewRef(parent));
    item = PyLong_FromLongLong(h);
    if (item == NULL) {
        Py_DECREF(child);
        return NULL;
    }
    PyTuple_SET_ITEM(child, 2, item);
    return child;
fail_state:
    Py_DECREF(state);
    return NULL;
}

PyDoc_STRVAR(synthetic_expand_doc,
"synthetic_expand(node, threshold, push, prune, tables)\n--\n\n"
"idastra._kernels_py.synthetic_expand, compiled: the same children,\n"
"pushed and pruned in the same order, and the same result.  A node or\n"
"tables tuple of the wrong shape or types raises TypeError.");

static PyObject *
synthetic_expand(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5)
        return malformed("takes (node, threshold, push, prune, tables)");
    PyObject *node = args[0], *push = args[2], *prune = args[3];
    PyObject *tables = args[4];
    if (!PyTuple_Check(node) || PyTuple_GET_SIZE(node) != 5)
        return malformed("node must be a tuple (state, g, h, op, parent)");
    PyObject *state = PyTuple_GET_ITEM(node, 0);
    PyObject *g_obj = PyTuple_GET_ITEM(node, 1);
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 3)
        return malformed("state must be a tuple (path, shared, key)");
    PyObject *path = PyTuple_GET_ITEM(state, 0);
    PyObject *shared_obj = PyTuple_GET_ITEM(state, 1);
    PyObject *key = PyTuple_GET_ITEM(state, 2);
    if (!PyBytes_Check(path) || !PyLong_Check(shared_obj)
            || !PyLong_Check(key) || !PyLong_Check(g_obj))
        return malformed("path must be bytes and shared, key and g ints");
    if (!PyTuple_Check(tables) || PyTuple_GET_SIZE(tables) != 6)
        return malformed("tables must be a tuple (on_path, off_path, "
                         "goal_path, d, goal_below, emod)");
    PyObject *on_path = PyTuple_GET_ITEM(tables, 0);
    PyObject *off_path = PyTuple_GET_ITEM(tables, 1);
    PyObject *goal_path = PyTuple_GET_ITEM(tables, 2);
    PyObject *d_obj = PyTuple_GET_ITEM(tables, 3);
    PyObject *goal_below = PyTuple_GET_ITEM(tables, 4);
    PyObject *emod_obj = PyTuple_GET_ITEM(tables, 5);
    if (!PyTuple_Check(on_path) || !PyTuple_Check(off_path)
            || !PyBytes_Check(goal_path) || !PyLong_Check(d_obj)
            || !PyLong_Check(goal_below) || !PyLong_Check(emod_obj))
        return malformed("on_path and off_path must be tuples, goal_path "
                         "bytes and d, goal_below and emod ints");
    long long shared, g, d, threshold;
    if (small_int(shared_obj, "shared", &shared) < 0
            || small_int(g_obj, "g", &g) < 0
            || small_int(d_obj, "d", &d) < 0
            || threshold_bound(args[1], &threshold) < 0)
        return NULL;
    long long depth = PyBytes_GET_SIZE(path);

    if (depth == d) {
        /* a leaf: the goal where it ends the goal path or its goal
         * stream is below the density threshold */
        if (shared == depth)
            return Py_NewRef(GOAL);
        int below = PyObject_RichCompareBool(key, goal_below, Py_LT);
        if (below < 0)
            return NULL;
        return below ? Py_NewRef(GOAL) : PyTuple_New(0);
    }
    PyObject *table = shared == depth ? on_path : off_path;
    if (depth >= PyTuple_GET_SIZE(table)) {
        PyErr_SetString(PyExc_IndexError,
                        "synthetic_expand: path is deeper than the tables");
        return NULL;
    }
    PyObject *indices = PyTuple_GET_ITEM(table, depth);
    if (!PyTuple_Check(indices))
        return malformed("a table entry must be a tuple of indices");
    Py_ssize_t n = PyTuple_GET_SIZE(indices);
    if (n > MAX_CHILDREN)
        return malformed("an index tuple holds at most 256 indices");
    unsigned char idx[MAX_CHILDREN];
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PyTuple_GET_ITEM(indices, j);
        long v = PyLong_Check(item) ? PyLong_AsLong(item) : -1;
        if (v < 0 || v > 255) {
            PyErr_Clear();
            return malformed("a child index must be an int in [0, 255]");
        }
        idx[j] = (unsigned char)v;
    }
    int goal_next = -1;
    if (shared == depth) {
        if (depth >= PyBytes_GET_SIZE(goal_path)) {
            PyErr_SetString(PyExc_IndexError,
                            "synthetic_expand: goal_path is too short");
            return NULL;
        }
        goal_next = (unsigned char)PyBytes_AS_STRING(goal_path)[depth];
    }
    int extra_goals = PyObject_RichCompareBool(goal_below, ZERO, Py_GT);
    if (extra_goals < 0)
        return NULL;
    uint64_t emod;
    int emod_big;
    if (error_modulus(emod_obj, &emod, &emod_big) < 0)
        return NULL;

    depth += 1;
    g += 1;
    /* distances to the designated goal, on and off the goal path */
    long long on = d - depth;
    long long off = extra_goals ? on : depth + d - 2 * shared;
    PyObject *g_child = PyLong_FromLongLong(g);
    if (g_child == NULL)
        return NULL;
    if (!off && g > threshold) {
        /* leaf children with density > 0: h 0 and f g for every child */
        for (Py_ssize_t j = 0; j < n; j++)
            if (call_one(prune, g_child) < 0)
                goto fail;
        Py_DECREF(g_child);
        return Py_NewRef(indices);
    }
    uint64_t err, goal;
    if (key_lanes(key, &err, &goal) < 0)
        goto fail;
    const char *p = PyBytes_AS_STRING(path);
    for (Py_ssize_t j = 0; j < n; j++) {
        unsigned char c = idx[j];
        uint64_t c_err = hash_step(err, c);
        long long c_shared = shared, h = 0;
        if (c == goal_next)
            c_shared += 1;
        if (off) {
            h = c == goal_next ? on : off;
            if (h > 0) {
                /* the error draw, from the child's error lane */
                uint64_t r = emod_big ? c_err : c_err % emod;
                h = r >= (uint64_t)h ? 0 : h - (long long)r;
            }
            else
                h = 0;
            if (g + h > threshold) {
                PyObject *f = PyLong_FromLongLong(g + h);
                if (f == NULL)
                    goto fail;
                int failed = call_one(prune, f);
                Py_DECREF(f);
                if (failed)
                    goto fail;
                continue;
            }
        }
        PyObject *child = make_child(p, depth, c, c_shared, c_err,
                                     hash_step(goal, c), g_child, h,
                                     PyTuple_GET_ITEM(indices, j), node);
        if (child == NULL)
            goto fail;
        int failed = call_one(push, child);
        Py_DECREF(child);
        if (failed)
            goto fail;
    }
    Py_DECREF(g_child);
    return Py_NewRef(indices);
fail:
    Py_DECREF(g_child);
    return NULL;
}

static PyMethodDef methods[] = {
    {"synthetic_expand", (PyCFunction)(void (*)(void))synthetic_expand,
     METH_FASTCALL, synthetic_expand_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ckernels",
    "idastra's compiled kernels (see idastra._backend).", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    if (GOAL == NULL) {
        PyObject *core = PyImport_ImportModule("idastra.core");
        if (core == NULL)
            return NULL;
        GOAL = PyObject_GetAttrString(core, "GOAL");
        Py_DECREF(core);
        if (GOAL == NULL)
            return NULL;
    }
    if (ZERO == NULL && (ZERO = PyLong_FromLong(0)) == NULL)
        return NULL;
    return PyModule_Create(&module_def);
}
