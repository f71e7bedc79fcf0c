"""Image-quality metrics: maximum error, MSE, PSNR, with region masks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .phantom import ImageGrid, run_strips, shepp_logan_phantom


@dataclass(frozen=True)
class QualityReport:
    e_max: float
    mse: float
    psnr: float  # dB; inf when the images are identical on the region, -inf for peak 0
    region: str


# The inner region is the inner-skull ellipse shrunk by this factor.
INNER_SCALE = 0.98


def inner_region_mask(image: ImageGrid) -> np.ndarray:
    """Pixels inside or on the inner-skull ellipse shrunk by INNER_SCALE.

    The mask excludes the bright outer ring of the head phantom so metrics
    reflect interior structure only.
    """
    inner = shepp_logan_phantom().ellipses[1]
    shrunk = replace(
        inner, semi_a=inner.semi_a * INNER_SCALE, semi_b=inner.semi_b * INNER_SCALE
    )
    mask = np.zeros((image.rows, image.cols), dtype=bool)
    xs, ys = image.axes()
    window, cols = shrunk.window(image)

    def fill(strips):
        for strip in strips:
            rows = slice(max(window.start, strip.start), min(window.stop, strip.stop))
            if rows.start < rows.stop:
                mask[rows, cols] = shrunk.contains(xs[cols], ys[rows, None])

    run_strips(image.strips(), fill)
    return mask


def image_metrics(test: ImageGrid, ref: ImageGrid, region: str = "whole") -> QualityReport:
    """E_max, MSE and PSNR of `test` against `ref` over the chosen region.

    PSNR uses the reference's maximum pixel value as peak: inf where the
    images agree, -inf where they do not and peak**2 / MSE is 0.  region is
    'whole' or 'inner' (inside the inner-skull ellipse).  ValueError unless
    both rasters share size and extent and the region holds a pixel.
    """
    rasters = [(img.rows, img.cols, tuple(img.extent)) for img in (test, ref)]
    if rasters[0] != rasters[1]:
        raise ValueError("image rasters differ in size or extent: "
                         + " vs ".join("{}x{} over {}".format(*r) for r in rasters))
    if region == "whole":
        mask = np.ones((ref.rows, ref.cols), dtype=bool)
    elif region == "inner":
        mask = inner_region_mask(ref)
    else:
        raise ValueError(f"unknown region {region!r}")
    if not mask.any():
        raise ValueError(f"region {region!r} holds no pixel of the raster over {ref.extent}")

    diff = np.abs(test.pixels - ref.pixels)[mask]
    e_max = float(diff.max())
    mse = float(np.mean(diff * diff))
    peak = float(ref.pixels.max())
    ratio = math.inf if mse == 0.0 else peak * peak / mse
    psnr = -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)
    return QualityReport(e_max=e_max, mse=mse, psnr=psnr, region=region)
