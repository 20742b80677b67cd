"""Target manifests: CSV/JSON cohort definitions, expanded and checked.

A campaign starts from a *manifest* — the operator-authored list of
prediction targets, one row per target, exactly the
``create_tasks_from_dataframe`` idiom of the Snakemake AF3 workflows.
Two on-disk formats parse to the same :class:`TargetSpec` list:

* **CSV** with an ``id`` and a ``chains`` column, where ``chains``
  packs one or more specs separated by ``;``::

      id,chains
      T0001,protein:MKVLITTAG...
      T0002,protein*2:MKWV...            # homodimer (2 copies)
      T0003,protein:MKV...;rna:ACGUACG   # protein + RNA complex

* **JSON** — ``{"targets": [{"id": ..., "chains": [{"molecule_type":
  ..., "sequence": ..., "copies": ...}, ...]}, ...]}`` (``copies`` is
  optional).  ``campaign.json`` stores its targets in this shape and is
  read back through the same :func:`parse_manifest_doc`.

Every failure mode an operator can hit — empty manifest, duplicate
target ids, unknown molecule types, residues outside the alphabet,
unsafe ids — raises :class:`ManifestError` with the offending target
named, never a bare traceback.  Parsed targets are *canonical*
(uppercased validated sequences, explicit copies), so re-rendering a
manifest with :func:`render_manifest_csv` round-trips.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pathlib
import random
import re
from collections import OrderedDict
from typing import Dict, List, Sequence, Union

from ..sequences.alphabets import MoleculeType
from ..sequences.chain import Assembly, Chain
from ..sequences.generator import random_sequence
from ..sequences.sample import InputSample, classify_complexity

__all__ = [
    "ChainSpec",
    "ManifestError",
    "TargetSpec",
    "load_manifest",
    "parse_manifest_csv",
    "parse_manifest_doc",
    "parse_manifest_json",
    "render_manifest_csv",
    "seeded_manifest",
]

#: Target ids become file names (``tasks/<id>.<stage>.json``), so they
#: are restricted to a filesystem-safe alphabet.
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Molecule types a manifest row may name (ligands/ions carry no
#: sequence and no MSA, so campaign manifests do not express them).
_POLYMER_TYPES = tuple(
    t.value for t in MoleculeType if t.is_polymer
)

#: Seed salt for :func:`seeded_manifest` (independent of request seeds).
_MANIFEST_SALT = 0x51C


class ManifestError(ValueError):
    """A manifest problem with an operator-actionable message."""


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """One validated chain of a manifest target."""

    molecule_type: str
    sequence: str
    copies: int = 1

    def as_dict(self) -> "OrderedDict[str, object]":
        return OrderedDict(
            molecule_type=self.molecule_type,
            sequence=self.sequence,
            copies=self.copies,
        )

    def spec_string(self) -> str:
        """The compact ``type[*copies]:sequence`` CSV form."""
        if self.copies != 1:
            return f"{self.molecule_type}*{self.copies}:{self.sequence}"
        return f"{self.molecule_type}:{self.sequence}"


@dataclasses.dataclass(frozen=True)
class TargetSpec:
    """One prediction target of a campaign, already validated."""

    target_id: str
    chains: Sequence[ChainSpec]

    def as_dict(self) -> "OrderedDict[str, object]":
        return OrderedDict(
            id=self.target_id,
            chains=[c.as_dict() for c in self.chains],
        )

    def to_assembly(self) -> Assembly:
        """The AF3-input assembly this target describes."""
        return Assembly(
            name=self.target_id,
            chains=[
                Chain(
                    chain_id=chr(ord("A") + i),
                    molecule_type=MoleculeType(spec.molecule_type),
                    sequence=spec.sequence,
                    copies=spec.copies,
                )
                for i, spec in enumerate(self.chains)
            ],
        )

    def to_sample(self) -> InputSample:
        """The benchmark-input view the pipeline stages consume."""
        assembly = self.to_assembly()
        return InputSample(
            name=self.target_id,
            assembly=assembly,
            complexity=classify_complexity(
                assembly.total_residues,
                assembly.chain_count,
                mixed=len({c.molecule_type for c in assembly}) > 1,
            ),
            target_characteristic="campaign manifest target",
        )


def _check_id(target_id: str, row: int) -> str:
    target_id = (target_id or "").strip()
    if not target_id:
        raise ManifestError(
            f"manifest row {row}: missing target id (the 'id' column "
            f"must be non-empty)"
        )
    if not _ID_RE.match(target_id):
        raise ManifestError(
            f"manifest row {row}: target id {target_id!r} is not a safe "
            f"file name — use letters, digits, '.', '_' or '-' "
            f"(max 64 chars, starting with a letter or digit)"
        )
    return target_id


def _build_chain(
    target_id: str, index: int, molecule_type: str, sequence: str,
    copies: int,
) -> ChainSpec:
    """Validate one chain spec, naming the target on every failure."""
    where = f"target {target_id!r}, chain {index + 1}"
    if molecule_type not in _POLYMER_TYPES:
        raise ManifestError(
            f"{where}: unknown molecule type {molecule_type!r} "
            f"(expected one of {', '.join(_POLYMER_TYPES)})"
        )
    if not isinstance(copies, int) or isinstance(copies, bool) or copies < 1:
        raise ManifestError(
            f"{where}: copies must be a positive integer, got {copies!r}"
        )
    try:
        chain = Chain(
            chain_id="A",
            molecule_type=MoleculeType(molecule_type),
            sequence=sequence,
            copies=copies,
        )
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc
    return ChainSpec(
        molecule_type=molecule_type,
        sequence=chain.sequence or "",
        copies=copies,
    )


def _parse_chain_field(target_id: str, field: str) -> List[ChainSpec]:
    """The CSV ``chains`` cell: ``;``-separated ``type[*n]:sequence``."""
    specs: List[ChainSpec] = []
    parts = [p.strip() for p in (field or "").split(";") if p.strip()]
    if not parts:
        raise ManifestError(
            f"target {target_id!r}: empty 'chains' field — expected "
            f"';'-separated specs like 'protein:MKV...' or "
            f"'protein*2:MKV...'"
        )
    for i, part in enumerate(parts):
        head, sep, sequence = part.partition(":")
        if not sep:
            raise ManifestError(
                f"target {target_id!r}, chain {i + 1}: malformed spec "
                f"{part!r} — expected 'type:sequence' or "
                f"'type*copies:sequence'"
            )
        mol, star, copies_text = head.partition("*")
        copies = 1
        if star:
            try:
                copies = int(copies_text)
            except ValueError:
                raise ManifestError(
                    f"target {target_id!r}, chain {i + 1}: copy count "
                    f"{copies_text!r} is not an integer"
                ) from None
        specs.append(
            _build_chain(target_id, i, mol.strip().lower(), sequence, copies)
        )
    return specs


def _finish(targets: List[TargetSpec], source: str) -> List[TargetSpec]:
    if not targets:
        raise ManifestError(
            f"{source} defines no targets — a campaign needs at least "
            f"one manifest row"
        )
    seen: Dict[str, int] = {}
    for row, target in enumerate(targets, start=1):
        if target.target_id in seen:
            raise ManifestError(
                f"duplicate target id {target.target_id!r} (rows "
                f"{seen[target.target_id]} and {row}) — ids key the "
                f"campaign's checkpoint files and must be unique"
            )
        seen[target.target_id] = row
    return targets


def parse_manifest_csv(text: str) -> List[TargetSpec]:
    """Parse a CSV manifest (``id`` + ``chains`` columns required)."""
    reader = csv.DictReader(io.StringIO(text))
    fields = [f.strip().lower() for f in (reader.fieldnames or [])]
    if "id" not in fields or "chains" not in fields:
        raise ManifestError(
            f"CSV manifest must have 'id' and 'chains' columns, got "
            f"header {reader.fieldnames!r}"
        )
    targets: List[TargetSpec] = []
    for row_number, row in enumerate(reader, start=1):
        normalized = {
            (k or "").strip().lower(): (v or "") for k, v in row.items()
        }
        target_id = _check_id(normalized.get("id", ""), row_number)
        chains = _parse_chain_field(target_id, normalized.get("chains", ""))
        targets.append(TargetSpec(target_id=target_id, chains=chains))
    return _finish(targets, "CSV manifest")


def parse_manifest_json(text: str) -> List[TargetSpec]:
    """Parse a JSON manifest (``{"targets": [...]}`` or a bare list)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ManifestError(f"JSON manifest does not parse: {exc}") from exc
    return parse_manifest_doc(doc, "JSON manifest")


def parse_manifest_doc(doc, source: str) -> List[TargetSpec]:
    """Validate parsed JSON targets: an object with a ``targets`` list
    (a JSON manifest, or ``campaign.json``) or a bare list."""
    rows = doc.get("targets") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise ManifestError(
            f"{source} must be a list of targets or an object with "
            f"a 'targets' list"
        )
    targets: List[TargetSpec] = []
    for row_number, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise ManifestError(
                f"manifest row {row_number}: expected an object, got "
                f"{type(row).__name__}"
            )
        target_id = _check_id(str(row.get("id", "")), row_number)
        raw_chains = row.get("chains")
        if not isinstance(raw_chains, list) or not raw_chains:
            raise ManifestError(
                f"target {target_id!r}: 'chains' must be a non-empty list"
            )
        chains = []
        for i, raw in enumerate(raw_chains):
            if not isinstance(raw, dict):
                raise ManifestError(
                    f"target {target_id!r}, chain {i + 1}: expected an "
                    f"object with molecule_type/sequence"
                )
            chains.append(
                _build_chain(
                    target_id, i,
                    str(raw.get("molecule_type", "")).strip().lower(),
                    raw.get("sequence", "") or "",
                    raw.get("copies", 1),
                )
            )
        targets.append(TargetSpec(target_id=target_id, chains=chains))
    return _finish(targets, source)


def load_manifest(path: Union[str, pathlib.Path]) -> List[TargetSpec]:
    """Load a manifest file, dispatching on its extension."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file {path} does not exist")
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return parse_manifest_csv(text)
    if suffix == ".json":
        return parse_manifest_json(text)
    raise ManifestError(
        f"unsupported manifest extension {suffix!r} for {path} "
        f"(expected .csv or .json)"
    )


def render_manifest_csv(targets: Sequence[TargetSpec]) -> str:
    """Canonical CSV text for ``targets`` (round-trips through parse)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "chains"])
    for target in targets:
        writer.writerow(
            [
                target.target_id,
                ";".join(c.spec_string() for c in target.chains),
            ]
        )
    return out.getvalue()


def seeded_manifest(
    num_targets: int, seed: int = 0,
    min_residues: int = 120, max_residues: int = 360,
) -> List[TargetSpec]:
    """A deterministic synthetic cohort for demos, CI and goldens.

    Draws a mix of the shapes the paper's Table II spans — monomers,
    heterodimers, homodimers and protein+RNA complexes — with lengths
    in ``[min_residues, max_residues]``.  Extending ``num_targets``
    appends targets without reshuffling earlier ones (each target's
    draws are seeded independently, the chain-library idiom).
    """
    if num_targets < 1:
        raise ManifestError("a seeded cohort needs at least 1 target")
    if not 1 <= min_residues <= max_residues:
        raise ManifestError("bad residue range for seeded manifest")
    targets: List[TargetSpec] = []
    for i in range(num_targets):
        rng = random.Random(seed ^ (_MANIFEST_SALT + 6151 * (i + 1)))
        shape = rng.choice(
            ["monomer", "monomer", "heterodimer", "homodimer", "rna-mix"]
        )
        length = rng.randint(min_residues, max_residues)
        protein = random_sequence(
            length, MoleculeType.PROTEIN, seed=rng.randrange(2 ** 31)
        )
        chains = [ChainSpec("protein", protein)]
        if shape == "heterodimer":
            partner = random_sequence(
                rng.randint(min_residues, max_residues),
                MoleculeType.PROTEIN, seed=rng.randrange(2 ** 31),
            )
            chains.append(ChainSpec("protein", partner))
        elif shape == "homodimer":
            chains = [ChainSpec("protein", protein, copies=2)]
        elif shape == "rna-mix":
            rna = random_sequence(
                rng.randint(40, 120), MoleculeType.RNA,
                seed=rng.randrange(2 ** 31),
            )
            chains.append(ChainSpec("rna", rna))
        targets.append(
            TargetSpec(target_id=f"T{i:04d}", chains=chains)
        )
    return _finish(targets, "seeded manifest")
