"""Abstract base class for horizontally stratified soil models.

A soil model is a stack of ``C`` horizontal layers.  Layer ``c`` (1-based, as
in the paper's equation (2.3)) occupies the depth interval between interface
``c - 1`` and interface ``c``; the last layer extends to infinite depth.  Every
layer has a constant, isotropic scalar conductivity ``γ_c`` [(Ω·m)⁻¹].
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.exceptions import SoilModelError

__all__ = ["SoilModel"]


class SoilModel(abc.ABC):
    """Common interface of all horizontally layered soil models."""

    # -- abstract description --------------------------------------------------

    @property
    @abc.abstractmethod
    def conductivities(self) -> tuple[float, ...]:
        """Layer conductivities ``(γ_1, ..., γ_C)`` in (Ω·m)⁻¹, top to bottom."""

    @property
    @abc.abstractmethod
    def thicknesses(self) -> tuple[float, ...]:
        """Thicknesses of the first ``C - 1`` layers [m] (the last is infinite)."""

    # -- derived quantities -----------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of layers ``C``."""
        return len(self.conductivities)

    @property
    def resistivities(self) -> tuple[float, ...]:
        """Layer resistivities ``(ρ_1, ..., ρ_C)`` in Ω·m."""
        return tuple(1.0 / g for g in self.conductivities)

    def interface_depths(self) -> tuple[float, ...]:
        """Depths of the layer interfaces [m], strictly increasing.

        There are ``C - 1`` interfaces; a uniform soil has none.
        """
        return tuple(np.cumsum(self.thicknesses).tolist())

    def layer_index(self, depth: float) -> int:
        """1-based index of the layer containing the given depth.

        Points exactly on an interface are assigned to the layer *above* it
        (either convention is acceptable because the potential is continuous
        across interfaces); negative depths (above the surface) raise.
        """
        depth = float(depth)
        if depth < 0.0:
            raise SoilModelError(f"depth {depth} is above the earth surface")
        for index, interface in enumerate(self.interface_depths(), start=1):
            if depth <= interface:
                return index
        return self.n_layers

    def layer_indices(self, depths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`layer_index` over an array of non-negative depths.

        Follows the same convention: a depth exactly on an interface belongs
        to the layer above it.
        """
        depths = np.asarray(depths, dtype=float)
        if np.any(depths < 0.0):
            raise SoilModelError("depths above the earth surface have no layer")
        interfaces = np.asarray(self.interface_depths(), dtype=float)
        return np.searchsorted(interfaces, depths, side="left") + 1

    def conductivity_at(self, depth: float) -> float:
        """Conductivity of the layer containing ``depth`` [(Ω·m)⁻¹]."""
        return self.conductivities[self.layer_index(depth) - 1]

    def conductivity_of_layer(self, layer: int) -> float:
        """Conductivity of the 1-based layer index [(Ω·m)⁻¹]."""
        if not 1 <= layer <= self.n_layers:
            raise SoilModelError(
                f"layer index {layer} outside the valid range 1..{self.n_layers}"
            )
        return self.conductivities[layer - 1]

    def layer_bounds(self, layer: int) -> tuple[float, float]:
        """Depth interval ``(top, bottom)`` of a 1-based layer (bottom may be inf)."""
        if not 1 <= layer <= self.n_layers:
            raise SoilModelError(
                f"layer index {layer} outside the valid range 1..{self.n_layers}"
            )
        interfaces = (0.0, *self.interface_depths(), float("inf"))
        return (interfaces[layer - 1], interfaces[layer])

    # -- validation helper ------------------------------------------------------

    @staticmethod
    def _validate(conductivities: Sequence[float], thicknesses: Sequence[float]) -> None:
        if len(conductivities) == 0:
            raise SoilModelError("a soil model needs at least one layer")
        if len(thicknesses) != len(conductivities) - 1:
            raise SoilModelError(
                f"{len(conductivities)} layers require {len(conductivities) - 1} "
                f"thicknesses, got {len(thicknesses)}"
            )
        for gamma in conductivities:
            if not np.isfinite(gamma) or gamma <= 0.0:
                raise SoilModelError(f"layer conductivities must be positive, got {gamma!r}")
        for thickness in thicknesses:
            if not np.isfinite(thickness) or thickness <= 0.0:
                raise SoilModelError(f"layer thicknesses must be positive, got {thickness!r}")

    # -- misc -------------------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """Whether the model has a single layer."""
        return self.n_layers == 1

    def describe(self) -> str:
        """One-line human readable description."""
        parts = []
        interfaces = (0.0, *self.interface_depths())
        for index, gamma in enumerate(self.conductivities, start=1):
            top = interfaces[index - 1]
            if index < self.n_layers:
                bottom = interfaces[index]
                parts.append(f"layer {index}: γ={gamma:g} (Ω·m)⁻¹, {top:g}–{bottom:g} m")
            else:
                parts.append(f"layer {index}: γ={gamma:g} (Ω·m)⁻¹, below {top:g} m")
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoilModel):
            return NotImplemented
        return (
            self.conductivities == other.conductivities
            and self.thicknesses == other.thicknesses
        )

    def __hash__(self) -> int:
        return hash((self.conductivities, self.thicknesses))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "type": type(self).__name__,
            "conductivities": list(self.conductivities),
            "thicknesses": list(self.thicknesses),
        }
