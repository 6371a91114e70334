"""Schwarz (domain-decomposed) smoothing — paper Section 9 / refs [18, 19].

"Future work will focus ... on the use of Schwarz-style
communication-reducing preconditioners to improve strong scaling of the
MG smoothers."  The additive-Schwarz smoother relaxes the operator with
all inter-subdomain couplings cut (zero Dirichlet exterior), so a real
implementation runs it with *no halo exchange at all*; the price is a
weaker smoother.

:class:`DomainDecomposedOperator` cuts any nearest-neighbour stencil
along a site -> domain map (use :class:`~repro.lattice.Partition` ranks
as domains, or a :class:`~repro.lattice.Blocking` for finer blocks);
:class:`SchwarzMRSmoother` then relaxes it with MR.
"""

from __future__ import annotations

import numpy as np

from ..dirac.stencil import StencilOperator
from ..lattice import Partition
from ..solvers.mr import mr


class DomainDecomposedOperator(StencilOperator):
    """A stencil operator with hops crossing domain boundaries removed.

    Block-diagonal over the domains: applying it involves no
    cross-domain data whatsoever.
    """

    def __init__(self, op: StencilOperator, domain_of_site: np.ndarray):
        domain_of_site = np.asarray(domain_of_site)
        if domain_of_site.shape != (op.lattice.volume,):
            raise ValueError(
                f"domain map must have shape (V,), got {domain_of_site.shape}"
            )
        self.op = op
        self.lattice = op.lattice
        self.ns = op.ns
        self.nc = op.nc
        self.domain_of_site = domain_of_site
        # keep-masks: True where the neighbour lies in the same domain
        # (boolean, so masking a field keeps the field's dtype)
        self._keep_fwd = [
            domain_of_site[self.lattice.fwd[mu]] == domain_of_site for mu in range(4)
        ]
        self._keep_bwd = [
            domain_of_site[self.lattice.bwd[mu]] == domain_of_site for mu in range(4)
        ]

    @classmethod
    def from_partition(cls, op: StencilOperator, partition: Partition):
        """Cut along the rank boundaries of a domain decomposition."""
        if partition.global_lattice != op.lattice:
            raise ValueError("partition does not match operator lattice")
        domain = np.empty(op.lattice.volume, dtype=np.int64)
        for rank in range(partition.num_ranks):
            domain[partition.owned_sites[rank]] = rank
        return cls(op, domain)

    # ------------------------------------------------------------------
    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        return self.op.apply_diag(v)

    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        return self.op.apply_diag_inv(v)

    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        keep = self._keep_fwd[mu] if sign > 0 else self._keep_bwd[mu]
        out = self.op.apply_hop_gathered(mu, sign, nbr)
        return out * keep[:, None, None]

    def cut_fraction(self) -> float:
        """Fraction of hop terms removed by the decomposition."""
        kept = sum(k.sum() for k in self._keep_fwd) + sum(
            k.sum() for k in self._keep_bwd
        )
        return 1.0 - kept / (8 * self.lattice.volume)


class SchwarzMRSmoother:
    """MR relaxation of the domain-cut operator: a halo-free smoother."""

    def __init__(
        self,
        op: StencilOperator,
        partition: Partition,
        steps: int = 4,
        omega: float = 0.85,
    ):
        self.dd_op = DomainDecomposedOperator.from_partition(op, partition)
        self.steps = steps
        self.omega = omega

    def apply(self, r: np.ndarray) -> np.ndarray:
        return mr(self.dd_op, r, maxiter=self.steps, omega=self.omega).x
