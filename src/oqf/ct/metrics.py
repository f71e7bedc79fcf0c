"""Image-quality metrics: maximum error, MSE, PSNR, with region masks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .phantom import ImageGrid, shepp_logan_phantom


@dataclass(frozen=True)
class QualityReport:
    e_max: float
    mse: float
    psnr: float  # dB; math.inf when the images are identical on the region
    region: str


def inner_region_mask(image: ImageGrid, scale: float = 0.98) -> np.ndarray:
    """Pixels inside or on the inner-skull ellipse shrunk by `scale`.

    The mask excludes the bright outer ring of the head phantom so metrics
    reflect interior structure only.
    """
    inner = shepp_logan_phantom().ellipses[1]
    shrunk = replace(inner, semi_a=inner.semi_a * scale, semi_b=inner.semi_b * scale)
    return shrunk.contains(*image.pixel_centers())


def image_metrics(test: ImageGrid, ref: ImageGrid, region: str = "whole") -> QualityReport:
    """E_max, MSE and PSNR of `test` against `ref` over the chosen region.

    PSNR uses the reference's maximum pixel value as peak.  region is
    'whole' or 'inner' (inside the inner-skull ellipse).
    """
    if (test.rows, test.cols) != (ref.rows, ref.cols):
        raise ValueError(
            f"image sizes differ: {test.rows}x{test.cols} vs {ref.rows}x{ref.cols}"
        )
    if region == "whole":
        mask = np.ones((ref.rows, ref.cols), dtype=bool)
    elif region == "inner":
        mask = inner_region_mask(ref)
    else:
        raise ValueError(f"unknown region {region!r}")

    diff = np.abs(test.pixels - ref.pixels)[mask]
    e_max = float(diff.max())
    mse = float(np.mean(diff * diff))
    peak = float(ref.pixels.max())
    psnr = math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)
    return QualityReport(e_max=e_max, mse=mse, psnr=psnr, region=region)
