/* Compiled synthetic_expand, the artificial-tree kernel of
 * idastra._kernels_py in C, through the CPython API.
 *
 * It takes the same arguments, expands to the same children in the same
 * push and prune order, returns GOAL or () at a leaf and otherwise the
 * same index tuple, and raises where the Python kernel's inputs are
 * malformed.  A state's error and goal hashes are two ints in
 * [0, 2^64), read and built as uint64_t, and each of a child's is one
 * hash_step of its parent's, as the Python kernel steps them.
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

/* The child node ((path + bytes((c,)), shared, err, goal), g, h, op,
 * parent), path being len - 1 bytes at p; g and op are borrowed. */
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
    PyObject *state = PyTuple_New(4);
    if (state == NULL) {
        Py_DECREF(path);
        return NULL;
    }
    PyTuple_SET_ITEM(state, 0, path);
    PyObject *item = PyLong_FromLongLong(shared);
    if (item == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(state, 1, item);
    item = PyLong_FromUnsignedLongLong(err);
    if (item == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(state, 2, item);
    item = PyLong_FromUnsignedLongLong(goal);
    if (item == NULL)
        goto fail_state;
    PyTuple_SET_ITEM(state, 3, item);
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
"synthetic_expand(tables, node, threshold, push, prune)\n--\n\n"
"idastra._kernels_py.synthetic_expand, compiled: the same children,\n"
"pushed and pruned in the same order, and the same result.  A node or\n"
"tables tuple of the wrong shape or types raises TypeError.");

static PyObject *
synthetic_expand(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5)
        return malformed("takes (tables, node, threshold, push, prune)");
    PyObject *tables = args[0], *node = args[1];
    PyObject *push = args[3], *prune = args[4];
    if (!PyTuple_Check(node) || PyTuple_GET_SIZE(node) != 5)
        return malformed("node must be a tuple (state, g, h, op, parent)");
    PyObject *state = PyTuple_GET_ITEM(node, 0);
    PyObject *g_obj = PyTuple_GET_ITEM(node, 1);
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 4)
        return malformed("state must be a tuple (path, shared, err, goal)");
    PyObject *path = PyTuple_GET_ITEM(state, 0);
    PyObject *shared_obj = PyTuple_GET_ITEM(state, 1);
    PyObject *err_obj = PyTuple_GET_ITEM(state, 2);
    PyObject *goal_obj = PyTuple_GET_ITEM(state, 3);
    if (!PyBytes_Check(path) || !PyLong_Check(shared_obj)
            || !PyLong_Check(err_obj) || !PyLong_Check(goal_obj)
            || !PyLong_Check(g_obj))
        return malformed("path must be bytes and shared, err, goal and g "
                         "ints");
    if (!PyTuple_Check(tables) || PyTuple_GET_SIZE(tables) != 6)
        return malformed("tables must be a tuple (on_path, off_path, "
                         "goal_path, d, density_threshold, emod)");
    PyObject *on_path = PyTuple_GET_ITEM(tables, 0);
    PyObject *off_path = PyTuple_GET_ITEM(tables, 1);
    PyObject *goal_path = PyTuple_GET_ITEM(tables, 2);
    PyObject *d_obj = PyTuple_GET_ITEM(tables, 3);
    PyObject *density_threshold = PyTuple_GET_ITEM(tables, 4);
    PyObject *emod_obj = PyTuple_GET_ITEM(tables, 5);
    if (!PyTuple_Check(on_path) || !PyTuple_Check(off_path)
            || !PyBytes_Check(goal_path) || !PyLong_Check(d_obj)
            || !PyLong_Check(density_threshold) || !PyLong_Check(emod_obj))
        return malformed("on_path and off_path must be tuples, goal_path "
                         "bytes and d, density_threshold and emod ints");
    long long shared, g, d, threshold;
    if (small_int(shared_obj, "shared", &shared) < 0
            || small_int(g_obj, "g", &g) < 0
            || small_int(d_obj, "d", &d) < 0
            || threshold_bound(args[2], &threshold) < 0)
        return NULL;
    long long depth = PyBytes_GET_SIZE(path);

    if (depth == d) {
        /* a leaf: the goal where it ends the goal path or its goal
         * hash is below the density threshold, which is 2^64 at
         * density 1 */
        if (shared == depth)
            return Py_NewRef(GOAL);
        int below = PyObject_RichCompareBool(goal_obj, density_threshold,
                                             Py_LT);
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
    int extra_goals = PyObject_RichCompareBool(density_threshold, ZERO, Py_GT);
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
    /* OverflowError for a hash outside [0, 2^64) */
    uint64_t err = PyLong_AsUnsignedLongLong(err_obj);
    if (err == (uint64_t)-1 && PyErr_Occurred())
        goto fail;
    uint64_t goal = PyLong_AsUnsignedLongLong(goal_obj);
    if (goal == (uint64_t)-1 && PyErr_Occurred())
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
                /* the error draw, from the child's error hash */
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
