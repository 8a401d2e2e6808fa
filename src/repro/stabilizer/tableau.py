"""Symplectic tableau representation of Clifford operators.

A Clifford unitary on ``n`` qubits is determined (up to global phase) by
its action by conjugation on the Pauli generators X₁..Xₙ, Z₁..Zₙ.  Each
image is a signed Pauli, encoded as an (x-bits, z-bits, sign) triple;
the whole operator is a 2n×2n binary symplectic matrix plus a sign
vector -- the *tableau* of Aaronson & Gottesman (the paper's reference
[1] for the claim that linear reversible circuits dominate error
correction).

The composition and inversion laws implemented here are the standard
ones; correctness is pinned by unit tests against the defining relations
(H² = I, S⁴ = I, HSHSHS ∝ I, CNOT conjugation rules).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError


class StabilizerError(ReproError):
    """Raised on malformed tableaux or unsupported operations."""


@dataclass(frozen=True)
class PauliTerm:
    """A signed Pauli operator ±(X^x Z^z) in symplectic form.

    Attributes:
        x: Bitmask of qubits with an X factor.
        z: Bitmask of qubits with a Z factor.
        sign: 0 for +, 1 for −.
    """

    x: int
    z: int
    sign: int

    def commutes_with(self, other: "PauliTerm") -> bool:
        """Symplectic inner product: True iff the Paulis commute."""
        cross = bin(self.x & other.z).count("1") + bin(
            self.z & other.x
        ).count("1")
        return cross % 2 == 0

    def label(self, n_qubits: int) -> str:
        """Human-readable label, e.g. ``-XZ`` (qubit 0 leftmost)."""
        letters = []
        for qubit in range(n_qubits):
            has_x = (self.x >> qubit) & 1
            has_z = (self.z >> qubit) & 1
            letters.append("IXZY"[has_x | (has_z << 1)])
        return ("-" if self.sign else "+") + "".join(letters)


def _multiply_quarter(
    x1: int, z1: int, q1: int, x2: int, z2: int, q2: int
) -> tuple[int, int, int]:
    """Product of two Paulis in quarter-phase form.

    A Pauli is ``i^q · P(x, z)`` where ``P`` has literal I/X/Z/Y factors
    per qubit ((1,1) means Y).  Returns ``(x, z, q)`` of the product with
    ``q`` modulo 4; the Aaronson--Gottesman ``g`` function supplies the
    per-qubit reordering phase.
    """
    phase = q1 + q2
    qubit_mask = x1 | z1 | x2 | z2
    qubit = 0
    while qubit_mask >> qubit:
        ax, az = (x1 >> qubit) & 1, (z1 >> qubit) & 1
        bx, bz = (x2 >> qubit) & 1, (z2 >> qubit) & 1
        phase += _phase_g(ax, az, bx, bz)
        qubit += 1
    return x1 ^ x2, z1 ^ z2, phase % 4


def _phase_g(x1: int, z1: int, x2: int, z2: int) -> int:
    """Aaronson-Gottesman g: the power of i from multiplying one-qubit
    Paulis (X^x1 Z^z1)·(X^x2 Z^z2)."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:  # Y = iXZ
        return z2 - x2
    if x1 == 1:  # X
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)  # Z


@dataclass(frozen=True)
class CliffordTableau:
    """A Clifford operator as images of the Pauli generators.

    Attributes:
        n_qubits: Number of qubits.
        images: Tuple of 2n PauliTerms: entry ``i < n`` is the image of
            Xᵢ under conjugation, entry ``n + i`` the image of Zᵢ.
    """

    n_qubits: int
    images: tuple[PauliTerm, ...]

    def __post_init__(self):
        if len(self.images) != 2 * self.n_qubits:
            raise StabilizerError("tableau needs 2n Pauli images")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n_qubits: int) -> "CliffordTableau":
        images = [
            PauliTerm(x=1 << q, z=0, sign=0) for q in range(n_qubits)
        ] + [PauliTerm(x=0, z=1 << q, sign=0) for q in range(n_qubits)]
        return CliffordTableau(n_qubits=n_qubits, images=tuple(images))

    @staticmethod
    def hadamard(qubit: int, n_qubits: int) -> "CliffordTableau":
        """H: X ↦ Z, Z ↦ X."""
        tableau = CliffordTableau.identity(n_qubits)
        images = list(tableau.images)
        images[qubit] = PauliTerm(x=0, z=1 << qubit, sign=0)
        images[n_qubits + qubit] = PauliTerm(x=1 << qubit, z=0, sign=0)
        return CliffordTableau(n_qubits=n_qubits, images=tuple(images))

    @staticmethod
    def phase_gate(qubit: int, n_qubits: int) -> "CliffordTableau":
        """S: X ↦ Y (= +XZ here), Z ↦ Z."""
        tableau = CliffordTableau.identity(n_qubits)
        images = list(tableau.images)
        images[qubit] = PauliTerm(x=1 << qubit, z=1 << qubit, sign=0)
        return CliffordTableau(n_qubits=n_qubits, images=tuple(images))

    @staticmethod
    def phase_gate_dagger(qubit: int, n_qubits: int) -> "CliffordTableau":
        """S†: X ↦ −Y, Z ↦ Z."""
        tableau = CliffordTableau.identity(n_qubits)
        images = list(tableau.images)
        images[qubit] = PauliTerm(x=1 << qubit, z=1 << qubit, sign=1)
        return CliffordTableau(n_qubits=n_qubits, images=tuple(images))

    @staticmethod
    def cnot(control: int, target: int, n_qubits: int) -> "CliffordTableau":
        """CNOT: X_c ↦ X_c X_t, Z_t ↦ Z_c Z_t, X_t and Z_c fixed."""
        if control == target:
            raise StabilizerError("control equals target")
        tableau = CliffordTableau.identity(n_qubits)
        images = list(tableau.images)
        images[control] = PauliTerm(
            x=(1 << control) | (1 << target), z=0, sign=0
        )
        images[n_qubits + target] = PauliTerm(
            x=0, z=(1 << control) | (1 << target), sign=0
        )
        return CliffordTableau(n_qubits=n_qubits, images=tuple(images))

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def apply_to_pauli(self, pauli: PauliTerm) -> PauliTerm:
        """Image of an arbitrary signed Pauli under conjugation.

        The input is decomposed as ``i^k · Π X-factors · Π Z-factors``
        with one ``i`` per Y factor (Y = iXZ); images of the factors are
        multiplied in quarter-phase form, and the result is guaranteed
        real-signed because conjugation preserves Hermiticity.
        """
        x = z = 0
        quarter = 2 * pauli.sign
        # One +i for every Y factor in the input.
        quarter += bin(pauli.x & pauli.z).count("1")
        for qubit in range(self.n_qubits):
            if (pauli.x >> qubit) & 1:
                image = self.images[qubit]
                x, z, quarter = _multiply_quarter(
                    x, z, quarter, image.x, image.z, 2 * image.sign
                )
        for qubit in range(self.n_qubits):
            if (pauli.z >> qubit) & 1:
                image = self.images[self.n_qubits + qubit]
                x, z, quarter = _multiply_quarter(
                    x, z, quarter, image.x, image.z, 2 * image.sign
                )
        # The accumulator is i^quarter · W(x, z) with W already in literal
        # I/X/Z/Y form (the g-function convention), so no further Y
        # adjustment applies; Hermiticity forces an even quarter-phase.
        quarter %= 4
        if quarter % 2 != 0:
            raise StabilizerError("conjugation produced a non-real phase")
        return PauliTerm(x=x, z=z, sign=quarter // 2)

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Sequential composition: apply ``self`` first, then ``other``.

        The conjugation action composes contravariantly: the image of a
        generator under (self then other) is other's image of self's
        image.
        """
        if other.n_qubits != self.n_qubits:
            raise StabilizerError("qubit-count mismatch")
        images = tuple(
            other.apply_to_pauli(image) for image in self.images
        )
        return CliffordTableau(n_qubits=self.n_qubits, images=images)

    def inverse(self) -> "CliffordTableau":
        """The inverse Clifford (solves the 2n×2n symplectic system).

        Implemented by brute substitution: the inverse tableau's images
        are the unique signed Paulis that ``self`` maps onto each
        generator.  For the small n used here a Gaussian solve over the
        symplectic matrix is unnecessary; we invert via composition
        search over generators of the image space instead.
        """
        n = self.n_qubits
        # Build the 2n x 2n binary matrix of the symplectic action.
        size = 2 * n
        rows = []
        for image in self.images:
            rows.append(_pauli_to_vector(image, n))
        # Invert the matrix over GF(2).
        from repro.synth.gf2 import matrix_inverse

        matrix = tuple(
            sum(rows[col][bit] << col for col in range(size))
            for bit in range(size)
        )
        inverse_matrix = matrix_inverse(matrix)
        images = []
        for row in range(size):
            x = z = 0
            for col in range(size):
                if (inverse_matrix[col] >> row) & 1:
                    if col < n:
                        x |= 1 << col
                    else:
                        z |= 1 << (col - n)
            candidate = PauliTerm(x=x, z=z, sign=0)
            # Fix the sign so that self(candidate) == generator exactly.
            mapped = self.apply_to_pauli(candidate)
            target = _generator(row, n)
            if (mapped.x, mapped.z) != (target.x, target.z):
                raise StabilizerError("symplectic inversion failed")
            sign = mapped.sign ^ target.sign
            images.append(PauliTerm(x=x, z=z, sign=sign))
        return CliffordTableau(n_qubits=n, images=tuple(images))

    def is_identity(self) -> bool:
        return self == CliffordTableau.identity(self.n_qubits)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def key(self) -> int:
        """Compact integer encoding (hashable, order-stable)."""
        value = 0
        bits_per_mask = self.n_qubits
        for image in self.images:
            value = (value << bits_per_mask) | image.x
            value = (value << bits_per_mask) | image.z
            value = (value << 1) | image.sign
        return value

    def labels(self) -> list[str]:
        """Readable generator-image table, X₁.., then Z₁.. ."""
        return [image.label(self.n_qubits) for image in self.images]


def _pauli_to_vector(pauli: PauliTerm, n_qubits: int) -> list[int]:
    bits = []
    for qubit in range(n_qubits):
        bits.append((pauli.x >> qubit) & 1)
    for qubit in range(n_qubits):
        bits.append((pauli.z >> qubit) & 1)
    return bits


def _generator(index: int, n_qubits: int) -> PauliTerm:
    if index < n_qubits:
        return PauliTerm(x=1 << index, z=0, sign=0)
    return PauliTerm(x=0, z=1 << (index - n_qubits), sign=0)
