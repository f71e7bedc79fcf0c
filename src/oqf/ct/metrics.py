"""Image-quality metrics: maximum error, MSE, PSNR, with region masks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .phantom import ImageGrid, paint, shepp_logan_phantom


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
    reflect interior structure only.  It is the shrunk ellipse painted at
    intensity 1 on a blank raster of image's shape and extent.
    """
    inner = shepp_logan_phantom().ellipses[1]
    shrunk = replace(inner, semi_a=inner.semi_a * INNER_SCALE,
                     semi_b=inner.semi_b * INNER_SCALE, intensity=1.0)
    blank = ImageGrid(image.rows, image.cols, np.zeros((image.rows, image.cols)), image.extent)
    return paint(blank, [shrunk]).pixels != 0


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
    diff = np.abs(test.pixels - ref.pixels)
    if region == "whole":
        diff = diff.ravel()
    elif region == "inner":
        mask = inner_region_mask(ref)
        if not mask.any():
            raise ValueError(f"region {region!r} holds no pixel of the raster over {ref.extent}")
        diff = diff[mask]
    else:
        raise ValueError(f"unknown region {region!r}")
    e_max = float(diff.max())
    mse = float(np.mean(diff * diff))
    peak = float(ref.pixels.max())
    ratio = math.inf if mse == 0.0 else peak * peak / mse
    psnr = -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)
    return QualityReport(e_max=e_max, mse=mse, psnr=psnr, region=region)
