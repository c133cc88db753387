"""Convolution via im2col over TOC-compressed replicated matrices (Section 6).

The paper's discussion section observes that convolutional layers can use
TOC too: the standard image-to-column (im2col) transformation replicates
each sliding window into a matrix row, after which the convolution is a
plain matrix multiplication — and the replication introduces exactly the
kind of repeated column-value sequences TOC compresses well.

This module provides:

* :func:`im2col` — the replication transform for a batch of single- or
  multi-channel images;
* :func:`conv2d_direct` — reference direct convolution (used by tests);
* :class:`CompressedConv2d` — a convolution layer whose im2col matrix is
  compressed once with any registered scheme and whose forward pass is the
  compressed ``A @ M`` operation, the compressed matrix's own ``@``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedMatrix
from repro.compression.registry import get_scheme


def im2col(
    images: np.ndarray, kernel_size: int, stride: int = 1
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Unfold sliding windows of ``images`` into matrix rows.

    Parameters
    ----------
    images:
        Array of shape ``(batch, height, width)`` or ``(batch, channels,
        height, width)``.
    kernel_size:
        Side length of the square convolution kernel.
    stride:
        Window stride.

    Returns
    -------
    A pair ``(matrix, (batch, out_height, out_width))`` where ``matrix`` has
    one row per output pixel per image and ``channels * kernel_size**2``
    columns, so a convolution with ``k`` filters is ``matrix @ W`` with ``W``
    of shape ``(channels * kernel_size**2, k)``.
    """
    array = np.asarray(images, dtype=np.float64)
    if array.ndim == 3:
        array = array[:, None, :, :]
    if array.ndim != 4:
        raise ValueError("im2col expects (batch, height, width) or (batch, channels, height, width)")
    if kernel_size <= 0 or stride <= 0:
        raise ValueError("kernel_size and stride must be positive")
    batch, channels, height, width = array.shape
    if kernel_size > height or kernel_size > width:
        raise ValueError("kernel does not fit inside the image")

    out_height = (height - kernel_size) // stride + 1
    out_width = (width - kernel_size) // stride + 1
    rows = []
    for image in array:
        for i in range(out_height):
            for j in range(out_width):
                window = image[
                    :,
                    i * stride : i * stride + kernel_size,
                    j * stride : j * stride + kernel_size,
                ]
                rows.append(window.ravel())
    matrix = np.asarray(rows, dtype=np.float64)
    return matrix, (batch, out_height, out_width)


def conv2d_direct(images: np.ndarray, kernels: np.ndarray, stride: int = 1) -> np.ndarray:
    """Reference direct 2-D convolution (valid padding).

    ``kernels`` has shape ``(n_filters, channels, kernel, kernel)``; the
    result has shape ``(batch, n_filters, out_height, out_width)``.
    """
    array = np.asarray(images, dtype=np.float64)
    if array.ndim == 3:
        array = array[:, None, :, :]
    kernels = np.asarray(kernels, dtype=np.float64)
    n_filters, channels, kernel_size, _ = kernels.shape
    matrix, (batch, out_height, out_width) = im2col(array, kernel_size, stride)
    weights = kernels.reshape(n_filters, channels * kernel_size * kernel_size).T
    output = matrix @ weights
    return output.reshape(batch, out_height, out_width, n_filters).transpose(0, 3, 1, 2)


class CompressedConv2d:
    """A convolution layer executing over a compressed im2col matrix.

    The im2col matrix of a batch is compressed once (the analogue of
    compressing a mini-batch) and each forward pass — possibly with updated
    kernels, as in training — is the compressed ``A @ M`` operation.
    """

    def __init__(self, kernel_size: int, stride: int = 1, scheme: str = "TOC"):
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.scheme_name = scheme
        self._compressed: CompressedMatrix | None = None
        self._output_shape: tuple[int, int, int] | None = None
        self._n_columns: int | None = None

    def bind(self, images: np.ndarray) -> "CompressedConv2d":
        """Unfold and compress the batch; returns ``self`` for chaining."""
        matrix, output_shape = im2col(images, self.kernel_size, self.stride)
        self._compressed = get_scheme(self.scheme_name).compress(matrix)
        self._output_shape = output_shape
        self._n_columns = matrix.shape[1]
        return self

    @property
    def compressed(self) -> CompressedMatrix:
        if self._compressed is None:
            raise RuntimeError("bind() must be called before using the layer")
        return self._compressed

    @property
    def compression_ratio(self) -> float:
        """Ratio of the dense im2col matrix over its compressed size."""
        return self.compressed.compression_ratio()

    def forward(self, kernels: np.ndarray) -> np.ndarray:
        """Convolve the bound batch with ``kernels`` (shape ``(f, c, k, k)``)."""
        compressed = self.compressed  # raises if bind() was never called
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.ndim != 4 or kernels.shape[2] != self.kernel_size:
            raise ValueError("kernels must have shape (filters, channels, kernel, kernel)")
        n_filters = kernels.shape[0]
        weights = kernels.reshape(n_filters, -1).T
        if weights.shape[0] != self._n_columns:
            raise ValueError(
                f"kernels cover {weights.shape[0]} inputs, the bound batch has {self._n_columns}"
            )
        output = compressed @ weights
        batch, out_height, out_width = self._output_shape
        return output.reshape(batch, out_height, out_width, n_filters).transpose(0, 3, 1, 2)
