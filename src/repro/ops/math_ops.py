"""Mathematical operations: elementwise arithmetic, matmul, reductions.

Each operation is registered once and served by a NumPy kernel shared
between the CPU and the simulated GPU.  Gradient rules are expressed as
compositions of the same primitive ops, so differentiating imperative
code, building a staged backward function, and taking higher-order
gradients all reuse one set of definitions (paper §4.2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape, broadcast_shapes
from repro.ops.common import (
    comparison_infer,
    constant_or_none,
    elementwise_infer,
    normalize_axes,
    reduced_shape,
    reduction_infer,
    simple_kernel,
    unary_infer,
)
from repro.ops.common import inplace_kernel
from repro.ops.registry import (
    register_gradient,
    register_inplace_kernel,
    register_kernel,
    register_op,
)
from repro.runtime.executor import execute
from repro.tensor import TensorBase, TensorSpec, convert_to_tensor

__all__ = [
    "add",
    "subtract",
    "multiply",
    "divide",
    "floordiv",
    "mod",
    "pow",
    "negative",
    "abs",
    "reciprocal",
    "exp",
    "log",
    "log1p",
    "sqrt",
    "rsqrt",
    "square",
    "squared_difference",
    "sign",
    "floor",
    "ceil",
    "round",
    "sin",
    "cos",
    "tanh",
    "sigmoid",
    "erf",
    "maximum",
    "minimum",
    "equal",
    "not_equal",
    "less",
    "less_equal",
    "greater",
    "greater_equal",
    "logical_and",
    "logical_or",
    "logical_not",
    "cast",
    "clip_by_value",
    "matmul",
    "add_n",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "reduce_min",
    "reduce_prod",
    "reduce_any",
    "reduce_all",
    "reduce_logsumexp",
    "argmax",
    "argmin",
    "cumsum",
    "tensordot",
    "einsum",
]


def _convert(x, dtype=None):
    return convert_to_tensor(x, dtype=dtype)


def _binary(op_name: str, x, y):
    return execute_binary(op_name, x, y)


# ---------------------------------------------------------------------------
# Broadcasting gradient reduction
# ---------------------------------------------------------------------------

register_op("SumToShape", infer_fn=lambda inputs, attrs: _sum_to_shape_infer(inputs, attrs))


def _sum_to_shape_infer(inputs, attrs):
    x, shape_t = inputs
    target = constant_or_none(shape_t)
    if target is not None:
        return [TensorSpec(TensorShape(tuple(int(d) for d in target)), x.dtype)]
    return [TensorSpec(TensorShape(None), x.dtype)]


@register_kernel("SumToShape")
def _sum_to_shape_kernel(inputs, attrs, device):
    x, shape = inputs
    target = tuple(int(d) for d in shape)
    extra = x.ndim - len(target)
    if extra > 0:
        x = x.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (dx, dt) in enumerate(zip(x.shape, target)) if dt == 1 and dx != 1
    )
    if axes:
        x = x.sum(axis=axes, keepdims=True)
    return x.reshape(target)


@register_gradient("SumToShape")
def _sum_to_shape_grad(op, grad):
    x = op.inputs[0]
    return [array_ops.broadcast_to(grad, array_ops.shape(x)), None]


def _sum_to_like(grad, x):
    """Reduce a broadcasting-op gradient back to the shape of ``x``."""
    gshape, xshape = grad.shape, x.shape
    if gshape.is_fully_defined and xshape.is_fully_defined:
        if gshape == xshape:
            return grad
        gdims, xdims = list(gshape.dims), list(xshape.dims)
        extra = len(gdims) - len(xdims)
        axes = list(range(extra)) + [
            i + extra for i, d in enumerate(xdims) if d == 1 and gdims[i + extra] != 1
        ]
        if axes:
            grad = reduce_sum(grad, axis=tuple(axes), keepdims=False)
        return array_ops.reshape(grad, xdims)
    return execute("SumToShape", [grad, array_ops.shape(x)])


# ---------------------------------------------------------------------------
# Binary elementwise arithmetic
# ---------------------------------------------------------------------------

register_op("Add", infer_fn=elementwise_infer)
register_kernel("Add")(simple_kernel(np.add))


@register_gradient("Add")
def _add_grad(op, grad):
    x, y = op.inputs
    return [_sum_to_like(grad, x), _sum_to_like(grad, y)]


register_op("Sub", infer_fn=elementwise_infer)
register_kernel("Sub")(simple_kernel(np.subtract))


@register_gradient("Sub")
def _sub_grad(op, grad):
    x, y = op.inputs
    return [_sum_to_like(grad, x), _sum_to_like(negative(grad), y)]


register_op("Mul", infer_fn=elementwise_infer)
register_kernel("Mul")(simple_kernel(np.multiply))


@register_gradient("Mul")
def _mul_grad(op, grad):
    x, y = op.inputs
    return [_sum_to_like(grad * y, x), _sum_to_like(grad * x, y)]


register_op("RealDiv", infer_fn=elementwise_infer)
register_kernel("RealDiv")(simple_kernel(np.true_divide))


@register_gradient("RealDiv")
def _realdiv_grad(op, grad):
    x, y = op.inputs
    gx = grad / y
    gy = negative(grad * op.outputs[0] / y)
    return [_sum_to_like(gx, x), _sum_to_like(gy, y)]


register_op("FloorDiv", infer_fn=elementwise_infer)
register_kernel("FloorDiv")(simple_kernel(np.floor_divide))

register_op("Mod", infer_fn=elementwise_infer)
register_kernel("Mod")(simple_kernel(np.mod))

register_op("Pow", infer_fn=elementwise_infer)
register_kernel("Pow")(simple_kernel(np.power))


@register_gradient("Pow")
def _pow_grad(op, grad):
    x, y = op.inputs
    z = op.outputs[0]
    gx = grad * y * pow(x, y - _ones_like_scalar(y))
    # d/dy x**y = x**y * log(x); guard log at x <= 0 like TF does.
    safe_x = maximum(x, _zeros_like_scalar(x))
    log_x = where_nonpositive_zero(x, log(maximum(safe_x, _tiny_like(x))))
    gy = grad * z * log_x
    return [_sum_to_like(gx, x), _sum_to_like(gy, y)]


def _ones_like_scalar(t):
    return convert_to_tensor(1, dtype=t.dtype)


def _zeros_like_scalar(t):
    return convert_to_tensor(0, dtype=t.dtype)


def _tiny_like(t):
    return convert_to_tensor(np.finfo(t.dtype.as_numpy_dtype).tiny, dtype=t.dtype)


def where_nonpositive_zero(x, value):
    """``value`` where x > 0, else 0 (helper for the Pow gradient)."""
    return array_ops.where(greater(x, _zeros_like_scalar(x)), value, _zeros_like_scalar(x))


register_op("SquaredDifference", infer_fn=elementwise_infer)
register_kernel("SquaredDifference")(simple_kernel(lambda x, y: np.square(x - y)))


@register_gradient("SquaredDifference")
def _sqdiff_grad(op, grad):
    x, y = op.inputs
    two = convert_to_tensor(2, dtype=x.dtype)
    gx = grad * two * (x - y)
    return [_sum_to_like(gx, x), _sum_to_like(negative(gx), y)]


register_op("Maximum", infer_fn=elementwise_infer)
register_kernel("Maximum")(simple_kernel(np.maximum))


@register_gradient("Maximum")
def _maximum_grad(op, grad):
    x, y = op.inputs
    mask = greater_equal(x, y)
    zero = _zeros_like_scalar(grad)
    gx = array_ops.where(mask, grad, zero)
    gy = array_ops.where(mask, zero, grad)
    return [_sum_to_like(gx, x), _sum_to_like(gy, y)]


register_op("Minimum", infer_fn=elementwise_infer)
register_kernel("Minimum")(simple_kernel(np.minimum))


@register_gradient("Minimum")
def _minimum_grad(op, grad):
    x, y = op.inputs
    mask = less_equal(x, y)
    zero = _zeros_like_scalar(grad)
    gx = array_ops.where(mask, grad, zero)
    gy = array_ops.where(mask, zero, grad)
    return [_sum_to_like(gx, x), _sum_to_like(gy, y)]


# ---------------------------------------------------------------------------
# Unary elementwise
# ---------------------------------------------------------------------------

register_op("Neg", infer_fn=unary_infer)
register_kernel("Neg")(simple_kernel(np.negative))
register_gradient("Neg")(lambda op, grad: [negative(grad)])

register_op("Abs", infer_fn=unary_infer)
register_kernel("Abs")(simple_kernel(np.abs))
register_gradient("Abs")(lambda op, grad: [grad * sign(op.inputs[0])])

register_op("Reciprocal", infer_fn=unary_infer)
register_kernel("Reciprocal")(simple_kernel(np.reciprocal))
register_gradient("Reciprocal")(
    lambda op, grad: [negative(grad * square(op.outputs[0]))]
)

register_op("Exp", infer_fn=unary_infer)
register_kernel("Exp")(simple_kernel(np.exp))
register_gradient("Exp")(lambda op, grad: [grad * op.outputs[0]])

register_op("Log", infer_fn=unary_infer)
register_kernel("Log")(simple_kernel(np.log))
register_gradient("Log")(lambda op, grad: [grad / op.inputs[0]])

register_op("Log1p", infer_fn=unary_infer)
register_kernel("Log1p")(simple_kernel(np.log1p))
register_gradient("Log1p")(
    lambda op, grad: [grad / (op.inputs[0] + _ones_like_scalar(op.inputs[0]))]
)

register_op("Sqrt", infer_fn=unary_infer)
register_kernel("Sqrt")(simple_kernel(np.sqrt))
register_gradient("Sqrt")(
    lambda op, grad: [
        grad * convert_to_tensor(0.5, dtype=grad.dtype) / op.outputs[0]
    ]
)

register_op("Rsqrt", infer_fn=unary_infer)
register_kernel("Rsqrt")(simple_kernel(lambda x: 1.0 / np.sqrt(x)))
register_gradient("Rsqrt")(
    lambda op, grad: [
        grad
        * convert_to_tensor(-0.5, dtype=grad.dtype)
        * op.outputs[0]
        * square(op.outputs[0])
    ]
)

register_op("Square", infer_fn=unary_infer)
register_kernel("Square")(simple_kernel(np.square))
register_gradient("Square")(
    lambda op, grad: [
        grad * convert_to_tensor(2, dtype=grad.dtype) * op.inputs[0]
    ]
)

register_op("Sign", infer_fn=unary_infer)
register_kernel("Sign")(simple_kernel(np.sign))
register_gradient("Sign")(lambda op, grad: [None])

register_op("Floor", infer_fn=unary_infer)
register_kernel("Floor")(simple_kernel(np.floor))
register_gradient("Floor")(lambda op, grad: [None])

register_op("Ceil", infer_fn=unary_infer)
register_kernel("Ceil")(simple_kernel(np.ceil))
register_gradient("Ceil")(lambda op, grad: [None])

register_op("Round", infer_fn=unary_infer)
register_kernel("Round")(simple_kernel(np.round))
register_gradient("Round")(lambda op, grad: [None])

register_op("Sin", infer_fn=unary_infer)
register_kernel("Sin")(simple_kernel(np.sin))
register_gradient("Sin")(lambda op, grad: [grad * cos(op.inputs[0])])

register_op("Cos", infer_fn=unary_infer)
register_kernel("Cos")(simple_kernel(np.cos))
register_gradient("Cos")(lambda op, grad: [negative(grad * sin(op.inputs[0]))])

register_op("Tanh", infer_fn=unary_infer)
register_kernel("Tanh")(simple_kernel(np.tanh))
register_gradient("Tanh")(
    lambda op, grad: [
        grad * (_ones_like_scalar(grad) - square(op.outputs[0]))
    ]
)

register_op("Sigmoid", infer_fn=unary_infer)


@register_kernel("Sigmoid")
def _sigmoid_kernel(inputs, attrs, device):
    (x,) = inputs
    # Numerically stable piecewise form.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


register_gradient("Sigmoid")(
    lambda op, grad: [
        grad * op.outputs[0] * (_ones_like_scalar(grad) - op.outputs[0])
    ]
)

register_op("Erf", infer_fn=unary_infer)


@register_kernel("Erf")
def _erf_kernel(inputs, attrs, device):
    (x,) = inputs
    try:
        from scipy.special import erf as scipy_erf

        return scipy_erf(x).astype(x.dtype)
    except ImportError:  # pragma: no cover - scipy is a test dependency
        return np.vectorize(float)(x)


register_gradient("Erf")(
    lambda op, grad: [
        grad
        * convert_to_tensor(2.0 / np.sqrt(np.pi), dtype=grad.dtype)
        * exp(negative(square(op.inputs[0])))
    ]
)

register_op("LogicalNot", infer_fn=unary_infer)
register_kernel("LogicalNot")(simple_kernel(np.logical_not))

register_op("LogicalAnd", infer_fn=elementwise_infer)
register_kernel("LogicalAnd")(simple_kernel(np.logical_and))

register_op("LogicalOr", infer_fn=elementwise_infer)
register_kernel("LogicalOr")(simple_kernel(np.logical_or))


# ---------------------------------------------------------------------------
# In-place kernel variants (buffer donation)
# ---------------------------------------------------------------------------
# The executor's static memory plan may let one of these write its
# result into an input buffer whose last consumer it is (refcount==1,
# dtype/shape match).  Registration is restricted to ufunc-backed ops
# whose normal kernels always allocate a fresh output: the registry
# entry doubles as the planner's "output never aliases an input"
# predicate, so view-returning ops (Identity, Reshape, ...) and custom
# kernels stay out.

for _name, _ufunc in [
    ("Add", np.add),
    ("Sub", np.subtract),
    ("Mul", np.multiply),
    ("RealDiv", np.true_divide),
    ("Pow", np.power),
    ("Neg", np.negative),
    ("Abs", np.abs),
    ("Exp", np.exp),
    ("Log", np.log),
    ("Log1p", np.log1p),
    ("Sqrt", np.sqrt),
    ("Square", np.square),
    ("Sign", np.sign),
    ("Floor", np.floor),
    ("Ceil", np.ceil),
    ("Sin", np.sin),
    ("Cos", np.cos),
    ("Tanh", np.tanh),
    ("Maximum", np.maximum),
    ("Minimum", np.minimum),
]:
    register_inplace_kernel(_name)(inplace_kernel(_ufunc))


@register_inplace_kernel("Rsqrt")
def _rsqrt_inplace(inputs, attrs, device, out):
    np.sqrt(inputs[0], out=out)
    return np.true_divide(1.0, out, out=out)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

for _name, _fn in [
    ("Less", np.less),
    ("LessEqual", np.less_equal),
    ("Greater", np.greater),
    ("GreaterEqual", np.greater_equal),
    ("Equal", np.equal),
    ("NotEqual", np.not_equal),
]:
    register_op(_name, infer_fn=comparison_infer)
    register_kernel(_name)(simple_kernel(_fn))


# ---------------------------------------------------------------------------
# Cast / clip
# ---------------------------------------------------------------------------

def _cast_infer(inputs, attrs):
    (x,) = inputs
    return [TensorSpec(x.shape, attrs["dtype"])]


def _cast_value(inputs, attrs):
    cv = constant_or_none(inputs[0])
    if cv is None or cv.size > 1024:
        return [None]
    return [cv.astype(attrs["dtype"].as_numpy_dtype)]


register_op("Cast", infer_fn=_cast_infer, value_fn=_cast_value)


@register_kernel("Cast")
def _cast_kernel(inputs, attrs, device):
    (x,) = inputs
    return x.astype(attrs["dtype"].as_numpy_dtype)


@register_gradient("Cast")
def _cast_grad(op, grad):
    src = op.inputs[0].dtype
    if src.is_differentiable and grad.dtype.is_differentiable:
        return [cast(grad, src)]
    return [None]


register_op("ClipByValue", infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, inputs[0].dtype)])
register_kernel("ClipByValue")(simple_kernel(np.clip))


@register_gradient("ClipByValue")
def _clip_grad(op, grad):
    x, lo, hi = op.inputs
    inside = logical_and(greater_equal(x, lo), less_equal(x, hi))
    zero = _zeros_like_scalar(grad)
    return [array_ops.where(inside, grad, zero), None, None]


# ---------------------------------------------------------------------------
# MatMul
# ---------------------------------------------------------------------------

def _matmul_infer(inputs, attrs):
    a, b = inputs
    ta, tb = attrs.get("transpose_a", False), attrs.get("transpose_b", False)
    ashape, bshape = TensorShape(a.shape), TensorShape(b.shape)
    if ashape.rank is None or bshape.rank is None:
        return [TensorSpec(TensorShape(None), a.dtype)]
    if ashape.rank < 2 or bshape.rank < 2:
        raise InvalidArgumentError(
            f"MatMul requires rank >= 2 inputs, got {ashape} and {bshape}"
        )
    am, ak = ashape[-2], ashape[-1]
    if ta:
        am, ak = ak, am
    bk, bn = bshape[-2], bshape[-1]
    if tb:
        bk, bn = bn, bk
    if ak is not None and bk is not None and ak != bk:
        raise InvalidArgumentError(
            f"MatMul inner dimensions do not match: {ashape} x {bshape}"
        )
    batch = broadcast_shapes(ashape[:-2], bshape[:-2])
    return [TensorSpec(batch.concatenate([am, bn]), a.dtype)]


register_op("MatMul", infer_fn=_matmul_infer)


@register_kernel("MatMul")
def _matmul_kernel(inputs, attrs, device):
    a, b = inputs
    if attrs.get("transpose_a", False):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b", False):
        b = np.swapaxes(b, -1, -2)
    return np.matmul(a, b)


@register_gradient("MatMul")
def _matmul_grad(op, grad):
    x, y = op.inputs
    ta = op.attrs.get("transpose_a", False)
    tb = op.attrs.get("transpose_b", False)
    if not ta and not tb:
        gx = matmul(grad, y, transpose_b=True)
        gy = matmul(x, grad, transpose_a=True)
    elif not ta and tb:
        gx = matmul(grad, y)
        gy = matmul(grad, x, transpose_a=True)
    elif ta and not tb:
        gx = matmul(y, grad, transpose_b=True)
        gy = matmul(x, grad)
    else:
        gx = matmul(y, grad, transpose_a=True, transpose_b=True)
        gy = matmul(grad, x, transpose_a=True, transpose_b=True)
    return [_sum_to_like(gx, x), _sum_to_like(gy, y)]


# ---------------------------------------------------------------------------
# AddN
# ---------------------------------------------------------------------------

register_op("AddN", infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, inputs[0].dtype)])


@register_kernel("AddN")
def _add_n_kernel(inputs, attrs, device):
    out = inputs[0]
    for x in inputs[1:]:
        out = out + x
    return out


register_gradient("AddN")(lambda op, grad: [grad] * len(op.inputs))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _np_axis(attrs):
    axis = attrs.get("axis")
    return None if axis is None else tuple(axis)


register_op("Sum", infer_fn=reduction_infer)


@register_kernel("Sum")
def _sum_kernel(inputs, attrs, device):
    (x,) = inputs
    dtype = x.dtype if np.issubdtype(x.dtype, np.integer) else None
    return np.sum(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False), dtype=dtype)


def _grad_broadcast_to_input(op, grad):
    """Reshape a reduction gradient to keepdims form, then broadcast."""
    x = op.inputs[0]
    xshape = x.shape
    if xshape.is_fully_defined:
        kshape = reduced_shape(xshape, op.attrs.get("axis"), keepdims=True)
        grad = array_ops.reshape(grad, kshape.as_list())
        return array_ops.broadcast_to(grad, xshape.as_list())
    shape_t = array_ops.shape(x)
    kept = execute(
        "ReductionKeepdimsShape",
        [shape_t],
        {"axis": op.attrs.get("axis")},
    )
    return array_ops.broadcast_to(array_ops.reshape(grad, kept), shape_t)


# Helper op for reduction gradients under unknown shapes: maps an input
# shape vector to the keepdims-reduced shape vector.
register_op(
    "ReductionKeepdimsShape",
    infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, dtypes.int32)],
)


@register_kernel("ReductionKeepdimsShape")
def _reduction_keepdims_shape_kernel(inputs, attrs, device):
    (shape,) = inputs
    axes = normalize_axes(attrs.get("axis"), len(shape))
    if axes is None:
        axes = tuple(range(len(shape)))
    out = shape.copy()
    out[list(axes)] = 1
    return out.astype(np.int32)


@register_gradient("Sum")
def _sum_grad(op, grad):
    return [_grad_broadcast_to_input(op, grad)]


register_op("Mean", infer_fn=reduction_infer)


@register_kernel("Mean")
def _mean_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.mean(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False)).astype(
        x.dtype, copy=False
    )


@register_gradient("Mean")
def _mean_grad(op, grad):
    x = op.inputs[0]
    out = op.outputs[0]
    num_x = x.shape.num_elements()
    num_out = out.shape.num_elements()
    if num_x is not None and num_out is not None and num_out > 0:
        factor = convert_to_tensor(num_x // num_out, dtype=grad.dtype)
        scaled = grad / factor
    else:
        size_x = cast(array_ops.size(x), grad.dtype)
        size_out = cast(array_ops.size(out), grad.dtype)
        scaled = grad * (size_out / size_x)
    return [_grad_broadcast_to_input(op, scaled)]


register_op("Max", infer_fn=reduction_infer)


@register_kernel("Max")
def _max_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.max(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False))


register_op("Min", infer_fn=reduction_infer)


@register_kernel("Min")
def _min_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.min(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False))


def _minmax_grad(op, grad):
    """Gradient for Max/Min: split grad evenly across tied extrema."""
    x = op.inputs[0]
    out = op.outputs[0]
    kshape = reduced_shape(x.shape, op.attrs.get("axis"), keepdims=True)
    if x.shape.is_fully_defined:
        out_k = array_ops.reshape(out, kshape.as_list())
        grad_k = array_ops.reshape(grad, kshape.as_list())
    else:
        shape_t = array_ops.shape(x)
        kept = execute("ReductionKeepdimsShape", [shape_t], {"axis": op.attrs.get("axis")})
        out_k = array_ops.reshape(out, kept)
        grad_k = array_ops.reshape(grad, kept)
    mask = cast(equal(x, out_k), grad.dtype)
    num_ties = reduce_sum(mask, axis=op.attrs.get("axis"), keepdims=True)
    return [mask * grad_k / num_ties]


register_gradient("Max")(_minmax_grad)
register_gradient("Min")(_minmax_grad)

register_op("Prod", infer_fn=reduction_infer)


@register_kernel("Prod")
def _prod_kernel(inputs, attrs, device):
    (x,) = inputs
    dtype = x.dtype if np.issubdtype(x.dtype, np.integer) else None
    return np.prod(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False), dtype=dtype)


@register_gradient("Prod")
def _prod_grad(op, grad):
    # out / x trick; matches TF for inputs without zeros.
    x = op.inputs[0]
    out = op.outputs[0]
    broadcast = _grad_broadcast_to_input(op, grad)
    out_b = _grad_broadcast_to_input(op, out)
    return [broadcast * out_b / x]


register_op(
    "Any",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(
            reduced_shape(TensorShape(inputs[0].shape), attrs.get("axis"), attrs.get("keepdims", False)),
            dtypes.bool_,
        )
    ],
)


@register_kernel("Any")
def _any_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.any(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False))


register_op(
    "All",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(
            reduced_shape(TensorShape(inputs[0].shape), attrs.get("axis"), attrs.get("keepdims", False)),
            dtypes.bool_,
        )
    ],
)


@register_kernel("All")
def _all_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.all(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False))


def _arg_reduce_infer(inputs, attrs):
    (x,) = inputs
    shape = TensorShape(x.shape)
    if shape.rank is None:
        return [TensorSpec(TensorShape(None), dtypes.int64)]
    axis = attrs.get("axis", 0) % shape.rank
    dims = [d for i, d in enumerate(shape.dims) if i != axis]
    return [TensorSpec(TensorShape(dims), dtypes.int64)]


register_op("ArgMax", infer_fn=_arg_reduce_infer)


@register_kernel("ArgMax")
def _argmax_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.argmax(x, axis=attrs.get("axis", 0)).astype(np.int64)


register_op("ArgMin", infer_fn=_arg_reduce_infer)


@register_kernel("ArgMin")
def _argmin_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.argmin(x, axis=attrs.get("axis", 0)).astype(np.int64)


register_op("Cumsum", infer_fn=unary_infer)


@register_kernel("Cumsum")
def _cumsum_kernel(inputs, attrs, device):
    (x,) = inputs
    axis = attrs.get("axis", 0)
    out = np.cumsum(x, axis=axis, dtype=x.dtype)
    if attrs.get("reverse", False):
        out = np.flip(np.cumsum(np.flip(x, axis=axis), axis=axis, dtype=x.dtype), axis=axis)
    if attrs.get("exclusive", False):
        out = np.roll(out, 1 if not attrs.get("reverse", False) else -1, axis=axis)
        idx = [slice(None)] * x.ndim
        idx[axis] = -1 if attrs.get("reverse", False) else 0
        out = out.copy()
        out[tuple(idx)] = 0
    return out


@register_gradient("Cumsum")
def _cumsum_grad(op, grad):
    attrs = dict(op.attrs)
    attrs["reverse"] = not attrs.get("reverse", False)
    return [execute("Cumsum", [grad], attrs)]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def add(x, y):
    """Elementwise ``x + y`` with NumPy broadcasting."""
    return _binary("Add", x, y)


def subtract(x, y):
    """Elementwise ``x - y`` with NumPy broadcasting."""
    return _binary("Sub", x, y)


def multiply(x, y):
    """Elementwise ``x * y`` with NumPy broadcasting."""
    return _binary("Mul", x, y)


def divide(x, y):
    """Elementwise true division."""
    return _binary("RealDiv", x, y)


def floordiv(x, y):
    """Elementwise floored division (no gradient)."""
    return _binary("FloorDiv", x, y)


def mod(x, y):
    """Elementwise modulo (no gradient)."""
    return _binary("Mod", x, y)


def pow(x, y):  # noqa: A001 - mirrors tf.pow
    """Elementwise power."""
    return _binary("Pow", x, y)


def negative(x):
    """Elementwise negation."""
    return execute("Neg", [_convert(x)])


def abs(x):  # noqa: A001 - mirrors tf.abs
    """Elementwise absolute value."""
    return execute("Abs", [_convert(x)])


def reciprocal(x):
    """Elementwise ``1 / x``."""
    return execute("Reciprocal", [_convert(x)])


def exp(x):
    """Elementwise exponential."""
    return execute("Exp", [_convert(x)])


def log(x):
    """Elementwise natural logarithm."""
    return execute("Log", [_convert(x)])


def log1p(x):
    """Elementwise ``log(1 + x)``."""
    return execute("Log1p", [_convert(x)])


def sqrt(x):
    """Elementwise square root."""
    return execute("Sqrt", [_convert(x)])


def rsqrt(x):
    """Elementwise reciprocal square root."""
    return execute("Rsqrt", [_convert(x)])


def square(x):
    """Elementwise square."""
    return execute("Square", [_convert(x)])


def squared_difference(x, y):
    """Elementwise ``(x - y)**2``."""
    return _binary("SquaredDifference", x, y)


def sign(x):
    """Elementwise sign."""
    return execute("Sign", [_convert(x)])


def floor(x):
    """Elementwise floor."""
    return execute("Floor", [_convert(x)])


def ceil(x):
    """Elementwise ceiling."""
    return execute("Ceil", [_convert(x)])


def round(x):  # noqa: A001 - mirrors tf.round
    """Elementwise round-half-to-even."""
    return execute("Round", [_convert(x)])


def sin(x):
    """Elementwise sine."""
    return execute("Sin", [_convert(x)])


def cos(x):
    """Elementwise cosine."""
    return execute("Cos", [_convert(x)])


def tanh(x):
    """Elementwise hyperbolic tangent."""
    return execute("Tanh", [_convert(x)])


def sigmoid(x):
    """Elementwise logistic sigmoid (numerically stable)."""
    return execute("Sigmoid", [_convert(x)])


def erf(x):
    """Elementwise Gauss error function."""
    return execute("Erf", [_convert(x)])


def maximum(x, y):
    """Elementwise maximum."""
    return _binary("Maximum", x, y)


def minimum(x, y):
    """Elementwise minimum."""
    return _binary("Minimum", x, y)


def equal(x, y):
    """Elementwise equality, returning a bool tensor."""
    return _binary("Equal", x, y)


def not_equal(x, y):
    """Elementwise inequality, returning a bool tensor."""
    return _binary("NotEqual", x, y)


def less(x, y):
    """Elementwise ``x < y``."""
    return _binary("Less", x, y)


def less_equal(x, y):
    """Elementwise ``x <= y``."""
    return _binary("LessEqual", x, y)


def greater(x, y):
    """Elementwise ``x > y``."""
    return _binary("Greater", x, y)


def greater_equal(x, y):
    """Elementwise ``x >= y``."""
    return _binary("GreaterEqual", x, y)


def logical_and(x, y):
    """Elementwise boolean AND."""
    return _binary("LogicalAnd", x, y)


def logical_or(x, y):
    """Elementwise boolean OR."""
    return _binary("LogicalOr", x, y)


def logical_not(x):
    """Elementwise boolean NOT."""
    return execute("LogicalNot", [_convert(x)])


def cast(x, dtype):
    """Cast a tensor to a new dtype."""
    x = _convert(x)
    dtype = dtypes.as_dtype(dtype)
    if x.dtype == dtype:
        return x
    return execute("Cast", [x], {"dtype": dtype})


def clip_by_value(x, clip_value_min, clip_value_max):
    """Clamp values into ``[clip_value_min, clip_value_max]``."""
    x = _convert(x)
    lo = convert_operand(clip_value_min, like=x)
    hi = convert_operand(clip_value_max, like=x)
    return execute("ClipByValue", [x, lo, hi])


def matmul(a, b, transpose_a: bool = False, transpose_b: bool = False):
    """Matrix product (batched over leading dimensions, like ``np.matmul``)."""
    a, b = _convert(a), _convert(b)
    if a.dtype != b.dtype:
        raise InvalidArgumentError(
            f"matmul received mismatched dtypes {a.dtype} and {b.dtype}"
        )
    return execute(
        "MatMul", [a, b], {"transpose_a": transpose_a, "transpose_b": transpose_b}
    )


def add_n(tensors: Sequence):
    """Sum a list of same-shaped tensors."""
    tensors = [_convert(t) for t in tensors]
    if not tensors:
        raise InvalidArgumentError("add_n requires at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    return execute("AddN", tensors)


def _reduce(op_name: str, x, axis, keepdims: bool):
    x = _convert(x)
    axes = normalize_axes(axis, x.shape.rank)
    return execute(op_name, [x], {"axis": axes, "keepdims": bool(keepdims)})


def reduce_sum(x, axis=None, keepdims: bool = False):
    """Sum over the given axes (all axes if None)."""
    return _reduce("Sum", x, axis, keepdims)


def reduce_mean(x, axis=None, keepdims: bool = False):
    """Mean over the given axes (all axes if None)."""
    return _reduce("Mean", x, axis, keepdims)


def reduce_max(x, axis=None, keepdims: bool = False):
    """Maximum over the given axes (all axes if None)."""
    return _reduce("Max", x, axis, keepdims)


def reduce_min(x, axis=None, keepdims: bool = False):
    """Minimum over the given axes (all axes if None)."""
    return _reduce("Min", x, axis, keepdims)


def reduce_prod(x, axis=None, keepdims: bool = False):
    """Product over the given axes (all axes if None)."""
    return _reduce("Prod", x, axis, keepdims)


def reduce_any(x, axis=None, keepdims: bool = False):
    """Logical OR over the given axes of a bool tensor."""
    return _reduce("Any", x, axis, keepdims)


def reduce_all(x, axis=None, keepdims: bool = False):
    """Logical AND over the given axes of a bool tensor."""
    return _reduce("All", x, axis, keepdims)


def reduce_logsumexp(x, axis=None, keepdims: bool = False):
    """Numerically stable ``log(sum(exp(x)))`` (composite op)."""
    x = _convert(x)
    m = reduce_max(x, axis=axis, keepdims=True)
    stopped = array_ops.stop_gradient(m)
    out = log(reduce_sum(exp(x - stopped), axis=axis, keepdims=True)) + stopped
    if not keepdims:
        axes = normalize_axes(axis, x.shape.rank)
        if axes is None:
            axes = tuple(range(x.shape.rank or 0))
        out = array_ops.squeeze(out, axis=axes)
    return out


def argmax(x, axis: int = 0):
    """Index of the maximum along ``axis`` (int64)."""
    return execute("ArgMax", [_convert(x)], {"axis": int(axis)})


def argmin(x, axis: int = 0):
    """Index of the minimum along ``axis`` (int64)."""
    return execute("ArgMin", [_convert(x)], {"axis": int(axis)})


def cumsum(x, axis: int = 0, exclusive: bool = False, reverse: bool = False):
    """Cumulative sum along an axis."""
    return execute(
        "Cumsum",
        [_convert(x)],
        {"axis": int(axis), "exclusive": bool(exclusive), "reverse": bool(reverse)},
    )


register_op("Einsum", infer_fn=lambda inputs, attrs: _einsum_infer(inputs, attrs))


def _einsum_infer(inputs, attrs):
    in_specs, out_spec = attrs["equation"].split("->")
    subs = in_specs.split(",")
    sizes: dict = {}
    for spec, t in zip(subs, inputs):
        shape = TensorShape(t.shape)
        if shape.rank is None:
            return [TensorSpec(TensorShape(None), inputs[0].dtype)]
        for label, dim in zip(spec, shape.dims):
            if label not in sizes or sizes[label] is None:
                sizes[label] = dim
    return [
        TensorSpec(
            TensorShape([sizes.get(label) for label in out_spec]),
            inputs[0].dtype,
        )
    ]


@register_kernel("Einsum")
def _einsum_kernel(inputs, attrs, device):
    return np.einsum(attrs["equation"], *inputs)


@register_gradient("Einsum")
def _einsum_grad(op, grad):
    """Gradient by subscript rotation: for z = einsum('ij,jk->ik', a, b),
    da = einsum('ik,jk->ij', grad, b) and db = einsum('ij,ik->jk', a, grad).

    Valid for equations without repeated labels inside one operand; the
    public ``einsum`` wrapper enforces that restriction.
    """
    in_specs, out_spec = op.attrs["equation"].split("->")
    subs = in_specs.split(",")
    grads = []
    for i, target in enumerate(subs):
        others = [(subs[j], op.inputs[j]) for j in range(len(subs)) if j != i]
        lhs = ",".join([out_spec] + [s for s, _ in others])
        equation = f"{lhs}->{target}"
        g = execute(
            "Einsum", [grad] + [t for _, t in others], {"equation": equation}
        )
        # Labels summed out in the forward (absent from output and other
        # operands) reappear by broadcasting.
        missing = [l for l in target if l not in out_spec and all(l not in s for s, _ in others)]
        if missing:
            raise InvalidArgumentError(
                f"einsum gradient cannot restore reduced label(s) {missing}; "
                "rewrite the contraction explicitly"
            )
        grads.append(g)
    return grads


def einsum(equation: str, *operands):
    """Einstein-summation contraction (explicit ``->`` form or inferred).

    Repeated labels within a single operand (trace-like patterns) are
    not supported; use ``repro.linalg.trace`` for those.
    """
    operands = [_convert(t) for t in operands]
    if "->" not in equation:
        in_specs = equation.replace(" ", "")
        labels = sorted(
            {l for l in in_specs.replace(",", "") if in_specs.count(l) == 1}
        )
        equation = f"{in_specs}->{''.join(labels)}"
    equation = equation.replace(" ", "")
    in_specs, _ = equation.split("->")
    for spec in in_specs.split(","):
        if len(set(spec)) != len(spec):
            raise InvalidArgumentError(
                "einsum with repeated labels inside one operand is not supported"
            )
    return execute("Einsum", list(operands), {"equation": equation})


def tensordot(a, b, axes):
    """Tensor contraction over the given axes (composite of reshape+matmul)."""
    a, b = _convert(a), _convert(b)
    if isinstance(axes, int):
        a_axes = list(range(a.shape.rank - axes, a.shape.rank))
        b_axes = list(range(axes))
    else:
        a_axes, b_axes = [list(ax) if isinstance(ax, (list, tuple)) else [ax] for ax in axes]
    a_rank, b_rank = a.shape.rank, b.shape.rank
    a_axes = [ax % a_rank for ax in a_axes]
    b_axes = [ax % b_rank for ax in b_axes]
    a_free = [i for i in range(a_rank) if i not in a_axes]
    b_free = [i for i in range(b_rank) if i not in b_axes]
    a_perm = array_ops.transpose(a, a_free + a_axes)
    b_perm = array_ops.transpose(b, b_axes + b_free)
    a_dims = a.shape.as_list()
    b_dims = b.shape.as_list()
    m = int(np.prod([a_dims[i] for i in a_free])) if a_free else 1
    k = int(np.prod([a_dims[i] for i in a_axes])) if a_axes else 1
    n = int(np.prod([b_dims[i] for i in b_free])) if b_free else 1
    out = matmul(
        array_ops.reshape(a_perm, [m, k]), array_ops.reshape(b_perm, [k, n])
    )
    out_shape = [a_dims[i] for i in a_free] + [b_dims[i] for i in b_free]
    return array_ops.reshape(out, out_shape)


# Bound once, after everything above is defined: the ``repro.ops``
# package imports this module while it is still initializing, and
# array_ops' gradient rules import this module back.  The gradient
# helpers above run thousands of times per training step, so they use
# these module globals instead of re-running an import per call.
from repro.ops import array_ops, convert_operand, execute_binary  # noqa: E402
