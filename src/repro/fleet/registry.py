"""The :class:`Fleet` registry of deployed edge devices."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import EdgeDeployment


class Fleet:
    """An ordered registry of named :class:`EdgeDeployment` devices.

    Device order is registration order and is part of the fleet's identity:
    the batched calibrator concatenates feature blocks in this order.
    Devices may be heterogeneous — different bit-widths, architectures, even
    different bit-flip networks; the calibrator groups devices per network so
    each distinct network still runs a single batched forward.
    """

    def __init__(self, devices: Optional[Dict[str, EdgeDeployment]] = None):
        self._devices: Dict[str, EdgeDeployment] = {}
        for device_id, deployment in (devices or {}).items():
            self.register(device_id, deployment)

    # ----------------------------------------------------------- registration
    def register(self, device_id: str, deployment: EdgeDeployment) -> EdgeDeployment:
        """Add a device under a unique id; returns the deployment for chaining."""
        if not device_id:
            raise ValueError("device_id must be a non-empty string")
        if device_id in self._devices:
            raise ValueError(f"device {device_id!r} is already registered")
        if not isinstance(deployment, EdgeDeployment):
            raise TypeError(
                f"expected an EdgeDeployment, got {type(deployment).__name__}"
            )
        self._devices[device_id] = deployment
        return deployment

    @classmethod
    def replicate(
        cls,
        deployment: EdgeDeployment,
        count: int,
        prefix: str = "device",
        seed: int = 0,
    ) -> "Fleet":
        """A fleet of ``count`` independent clones of one packaged deployment.

        This is the canonical production shape: one server-side calibration
        (quantized model + BF network + QCore) shipped to many devices.  Each
        clone owns its model, QCore and updater state; the BF network and
        feature normalizer are shared (read-only on the edge).  Per-device
        generators are spawned from ``seed`` via ``SeedSequence`` so device
        randomness is independent but the whole fleet is reproducible.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        fleet = cls()
        for index, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
            fleet.register(
                f"{prefix}-{index}",
                deployment.clone(rng=np.random.default_rng(child)),
            )
        return fleet

    # ------------------------------------------------------------------ views
    @property
    def ids(self) -> List[str]:
        """Device ids in registration order."""
        return list(self._devices)

    def get(self, device_id: str) -> EdgeDeployment:
        """The deployment behind ``device_id``; ``KeyError`` if unknown."""
        if device_id not in self._devices:
            raise KeyError(f"unknown device {device_id!r}")
        return self._devices[device_id]

    def items(self) -> Iterator[Tuple[str, EdgeDeployment]]:
        """``(device_id, deployment)`` pairs in registration order."""
        return iter(self._devices.items())

    def devices(self) -> List[EdgeDeployment]:
        """Deployments in registration order."""
        return list(self._devices.values())

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def __iter__(self) -> Iterator[str]:
        return iter(self._devices)

    def subset(self, device_ids: Sequence[str]) -> "Fleet":
        """A fleet view over a subset of devices (device objects are shared).

        All ids are validated up front: unknown or duplicated ids raise a
        ``ValueError`` naming every offender, rather than building a partial
        (or silently deduplicated) fleet.
        """
        device_ids = list(device_ids)
        unknown = [device_id for device_id in device_ids if device_id not in self._devices]
        if unknown:
            raise ValueError(
                f"unknown device ids {unknown!r}; fleet has {sorted(self._devices)!r}"
            )
        seen = set()
        duplicates = sorted(
            {device_id for device_id in device_ids
             if device_id in seen or seen.add(device_id)}
        )
        if duplicates:
            raise ValueError(f"duplicate device ids in subset: {duplicates!r}")
        return Fleet({device_id: self._devices[device_id] for device_id in device_ids})

    # ------------------------------------------------------------ diagnostics
    def codes_digests(self) -> Dict[str, str]:
        """Per-device fingerprints of the deployed integer codes.

        Equal digest maps mean bit-identical fleets — the assertion behind the
        fleet equivalence tests and the fleet demo.
        """
        return {
            device_id: deployment.qmodel.codes_digest()
            for device_id, deployment in self._devices.items()
        }

    def num_parameters(self) -> int:
        """Total quantized parameters across the fleet (one batched BF row each)."""
        return sum(dep.qmodel.num_parameters() for dep in self._devices.values())

    def summary(self) -> str:
        """One line per device: id, bits, parameter count."""
        lines = [
            f"{device_id}: {dep.bits}-bit, {dep.qmodel.num_parameters()} params"
            for device_id, dep in self._devices.items()
        ]
        return "\n".join(lines)
