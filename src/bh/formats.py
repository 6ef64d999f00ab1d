"""Versioned ASCII artifact formats.

Every artifact starts with a one-token magic line (BHMESH 1, BHCELL 3,
BHTENS 1, BHSOL 3, BHRUN 1), carries provenance comments (config and
geometry hashes), and ends with a checksum line over the preceding bytes.
A file whose magic names another version of the same artifact is refused
with a message asking for the command that writes it to be re-run.

The bulk arrays (the six arrays of a cell archive, the levels of a
solution) are packed, in one archive layout that both magics share: a grid
line, then per array a line with its name and shape over one line holding
the RFC 4648 base64 text of its little-endian float64 bytes, which must
all be finite.  The small, human-read artifacts (meshes, tensors,
manifests, VTK) print floats with %.17g.  Both encodings round-trip
doubles exactly, and re-runs from the same config produce byte-identical
bodies.
"""

import base64
import hashlib
import math
import os
from itertools import islice

import numpy as np

from . import blas_threads, cpus, scipy_blas_threads
from .errors import MissingArtifact

_F = "%.17g"


def _row(vals):
    return " ".join(_F % v for v in vals)


def _rows(table, fmts):
    """One text line per row of a 2D array (per value of a 1D array, with
    one format), joined by newlines into one item of a list of lines (no
    item for no rows); fmts holds one %-format per column.

    One template, the row template once per row, formats the flat Python
    values of the whole array, the same text as formatting each numpy
    scalar, with a few objects in place of a list per row.  '%d' % 3.0 is
    '3', so the integer columns of a float array print as integers.
    """
    n = len(table)
    text = "\n".join([" ".join(fmts)] * n) % tuple(np.ravel(table).tolist())
    return [text] if n else []


def _pack(vals):
    """One line of base64 bytes holding the little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def _unpack(line, n, path):
    """Inverse of _pack; the line must hold exactly n finite doubles."""
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise MissingArtifact(f"{path}: packed block is not base64") from None
    if len(raw) != 8 * n:
        raise MissingArtifact(
            f"{path}: packed block holds {len(raw)} bytes, expected {8 * n}")
    vals = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(vals)):
        raise MissingArtifact(f"{path}: malformed body, a packed block holds "
                              "a value that is not finite")
    return vals


# ---------------------------------------------------------------------------
# artifact envelope
# ---------------------------------------------------------------------------

def write_artifact(path, magic, header, body_lines):
    """Write the artifact; returns the sha256 of the file.

    Each body line is text, or ASCII bytes (a packed block): the text
    lines are encoded one by one and joined with the packed blocks once,
    so no megabyte-sized block is copied as text.
    """
    lines = [magic] + [f"# {key} {header[key]}" for key in sorted(header)]
    body = b"\n".join([ln if isinstance(ln, bytes) else ln.encode()
                       for ln in lines + body_lines] + [b""])
    sha = hashlib.sha256(body)
    trailer = f"checksum {sha.hexdigest()}\n".encode()
    sha.update(trailer)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(trailer)
    return sha.hexdigest()


def read_artifact(path, magic):
    """Return (header dict, body lines) after integrity checks."""
    if not os.path.exists(path):
        raise MissingArtifact(f"missing artifact {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    found = raw.partition(b"\n")[0].rstrip(b"\r")
    if found != magic.encode():
        kind, expected = magic.split()
        old = found.decode(errors="replace").split()
        if len(old) == 2 and old[0] == kind:
            raise MissingArtifact(
                f"{path} is a {kind} {old[1]} artifact, this version of bh "
                f"reads {kind} {expected}: re-run the command that writes it")
        raise MissingArtifact(f"{path} is not a {kind} artifact")
    cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
    trailer = raw[cut:].split()
    if len(trailer) != 2 or trailer[0] != b"checksum":
        raise MissingArtifact(f"{path} has no checksum trailer")
    body = raw[:cut]
    if hashlib.sha256(body).hexdigest().encode() != trailer[1]:
        raise MissingArtifact(f"{path} failed its checksum (tampered or truncated)")
    try:
        lines = body.decode().splitlines()
    except UnicodeDecodeError:
        raise MissingArtifact(f"{path} is not UTF-8 text") from None
    header, content = {}, []
    for ln in lines[1:]:
        if ln.startswith("# "):
            key, _, val = ln[2:].partition(" ")
            header[key] = val
        else:
            content.append(ln)
    return header, content


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# BHMESH
# ---------------------------------------------------------------------------

def write_mesh(path, header, vertices, simplices, phase, surf=None, pairs=None):
    nv, dim = vertices.shape
    npv = simplices.shape[1]
    body = [f"dim {dim}", f"vertices {nv}"]
    body += _rows(vertices, [_F] * dim)
    body.append(f"elements {len(simplices)}")
    body += _rows(np.column_stack([simplices, phase]), ["%d"] * (npv + 1))
    if surf is not None:
        body.append(f"facets {len(surf.facets)}")
        body += _rows(np.column_stack([surf.facets, surf.component,
                                       surf.normals]),
                      ["%d"] * (dim + 1) + [_F] * dim)
    else:
        body.append("facets 0")
    if pairs is not None and len(pairs):
        body.append(f"pairs {len(pairs)}")
        body += _rows(pairs, ["%d"] * 3)
    else:
        body.append("pairs 0")
    return write_artifact(path, "BHMESH 1", header, body)


def read_mesh(path):
    """A body off the written layout, with a vertex id outside the vertex
    table, an unknown phase or a vertex or normal that is not finite, is
    refused like a failed checksum."""
    header, body = read_artifact(path, "BHMESH 1")
    it = iter(body)

    def block(name, dtype, ncols):
        # a "<name> <count>" line, then count rows of ncols numbers each,
        # parsed in one call (numpy and float() round decimal text alike)
        key, n = next(it).split()
        if key != name:
            raise ValueError
        n = int(n)
        tokens = " ".join(islice(it, n)).split()
        return np.array(tokens, dtype=dtype).reshape(n, ncols)

    try:
        key, dim = next(it).split()
        dim = int(dim)
        if key != "dim" or dim not in (2, 3):
            raise ValueError
        vertices = block("vertices", np.float64, dim)
        elements = block("elements", np.int64, dim + 2)
        facet_rows = block("facets", str, 2 * dim + 1)
        pairs = block("pairs", np.int64, 3)
        facets = facet_rows[:, :dim].astype(np.int64)
        data = {
            "vertices": vertices,
            "simplices": np.ascontiguousarray(elements[:, :-1]),
            "phase": np.ascontiguousarray(elements[:, -1]),
            "facets": facets,
            "component": facet_rows[:, dim].astype(np.int64),
            "normals": facet_rows[:, dim + 1:].astype(np.float64),
            "pairs": pairs,
        }
        ids = np.concatenate([elements[:, :-1].ravel(), facets.ravel(),
                              pairs[:, :2].ravel()])
        if (next(it, None) is not None or not np.all(np.isfinite(vertices))
                or not np.all(np.isfinite(data["normals"]))
                or np.any((ids < 0) | (ids >= len(vertices)))
                or np.any((data["phase"] < 0) | (data["phase"] > 2))
                or np.any((pairs[:, 2] < 0) | (pairs[:, 2] >= dim))):
            raise ValueError
    except (ValueError, StopIteration):
        raise MissingArtifact(f"{path}: malformed mesh body") from None
    return header, data


# ---------------------------------------------------------------------------
# packed archives: BHCELL (cell correctors) and BHSOL (solution levels)
# ---------------------------------------------------------------------------

CELL_ARCHIVE = "BHCELL 3"
SOLUTION = "BHSOL 3"
TENSORS = "BHTENS 1"        # the text tensor file, below


def write_arrays(path, magic, header, grid, arrays):
    """A "grid <t_end> <dt>" line, then each of the (name, array) pairs as
    an "array <name> <shape...>" line and one packed line."""
    body = [f"grid {_F % grid.t_end} {_F % grid.step}"]
    for name, vals in arrays:
        body.append(" ".join(["array", name] + [str(n) for n in vals.shape]))
        body.append(_pack(vals))
    return write_artifact(path, magic, header, body)


def read_arrays(path, magic):
    """(header, grid, arrays) with grid = (t_end, dt) and arrays the
    (name, array) pairs in the order written."""
    header, body = read_artifact(path, magic)
    try:  # a body off the written layout is refused like a failed checksum
        k1, t_end, dt = body[0].split()
        marks = [ln.split() for ln in body[1::2]]
        heads = [(m[1], tuple(int(n) for n in m[2:])) for m in marks]
        if (k1 != "grid" or len(body) % 2 == 0
                or any(m[0] != "array" for m in marks)
                or any(n < 0 for _, shape in heads for n in shape)):
            raise ValueError
        grid = (float(t_end), float(dt))
    except (ValueError, IndexError):
        raise MissingArtifact(f"{path}: malformed archive body") from None
    arrays = [(name, _unpack(block, math.prod(shape), path).reshape(shape))
              for (name, shape), block in zip(heads, body[2::2])]
    return header, grid, arrays


# ---------------------------------------------------------------------------
# BHTENS
# ---------------------------------------------------------------------------

def _mat_line(key, M):
    return f"{key} " + _row(np.asarray(M).ravel())


def _floats(tokens, n):
    """n finite floats, else ValueError."""
    vals = np.array([float(t) for t in tokens])
    if len(vals) != n or not np.all(np.isfinite(vals)):
        raise ValueError
    return vals


def write_tensors(path, header, tens, kernel_grid):
    return write_artifact(path, TENSORS, header, tensor_body(tens, kernel_grid))


def tensor_body(tens, kernel_grid):
    """The body lines of a tensor file, as read_artifact returns them."""
    N = tens.A0.shape[0]
    A_inst = tens.lambda0 * np.eye(N) + tens.A0
    body = [f"dim {N}", f"lambda0 {_F % tens.lambda0}",
            _mat_line("A0", tens.A0),
            _mat_line("A0_flux", tens.A0_flux_form),
            f"A0_gap {_F % tens.discrepancies.get('A0_forms', 0.0)}",
            _mat_line("C0", tens.C0),
            _mat_line("C0_mixed", tens.C0_mixed_form),
            f"C0_gap {_F % tens.discrepancies.get('C0', 0.0)}",
            "A_inst_eig " + _row(np.linalg.eigvalsh((A_inst + A_inst.T) / 2)),
            "C0_eig " + _row(np.linalg.eigvalsh((tens.C0 + tens.C0.T) / 2))]
    if tens.A_hom_klt1 is not None:
        body.append(_mat_line("A_hom_klt1", tens.A_hom_klt1))
    body.append(_mat_line("A_hom_kgt1", tens.A_hom_kgt1))
    body.append(f"kernel {_F % kernel_grid.t_end} {_F % kernel_grid.step}")

    names = [f"B{a + 1}{b + 1}" for a in range(N) for b in range(N)]
    body.append("B0_csv")
    body.append("t, " + ", ".join(names) + ", discrepancy")
    scale = max(float(np.abs(tens.B0).max()), 1e-300)
    for l, t in enumerate(kernel_grid.times):
        gap = float(np.abs(tens.B0[l] - tens.B0_flux_form[l]).max()) / scale
        body.append(", ".join([_F % t] + [_F % v for v in tens.B0[l].ravel()]
                              + [_F % gap]))
    body.append("end_csv")
    body.append("Phi_csv")
    body.append("t, " + ", ".join(n.replace("B", "P") for n in names))
    for l, t in enumerate(kernel_grid.times):
        body.append(", ".join([_F % t]
                              + [_F % v for v in tens.F_coeffs[l].ravel()]))
    body.append("end_csv")
    return body


_TENSOR_MATS = ("A0", "A0_flux", "C0", "C0_mixed", "A_hom_klt1", "A_hom_kgt1")
_TENSOR_REQUIRED = {"lambda0", "A0", "A0_flux", "A0_gap", "C0", "C0_mixed",
                    "C0_gap", "A_inst_eig", "C0_eig", "A_hom_kgt1", "kernel",
                    "B0", "Phi"}


def read_tensors(path):
    """A body off the written layout, or with a value that is not finite,
    is refused like a failed checksum.  B0 and Phi are (levels, dim, dim)
    arrays on the kernel grid, whose times both tables must list alike."""
    header, body = read_artifact(path, TENSORS)
    it = iter(body)
    try:
        key, dim = next(it).split()
        dim = int(dim)
        if key != "dim" or dim not in (2, 3):
            raise ValueError
        out, times = {"dim": dim}, {}
        for ln in it:
            key, *toks = ln.split()
            if key in _TENSOR_MATS:
                out[key] = _floats(toks, dim * dim).reshape(dim, dim)
            elif key in ("A_inst_eig", "C0_eig"):
                out[key] = _floats(toks, dim)
            elif key in ("lambda0", "A0_gap", "C0_gap"):
                out[key] = float(_floats(toks, 1)[0])
            elif key == "kernel":
                out[key] = tuple(_floats(toks, 2).tolist())
            elif key in ("B0_csv", "Phi_csv") and not toks:
                # a column header, rows of t, the dim^2 entries (and the
                # B0 discrepancy), then end_csv
                ncols = 1 + dim * dim + (key == "B0_csv")
                if not next(it).startswith("t, "):
                    raise ValueError
                rows = []
                for sub in it:
                    if sub == "end_csv":
                        break
                    rows.append(_floats(sub.split(", "), ncols))
                else:
                    raise ValueError
                rows = np.array(rows).reshape(-1, ncols)
                name = key.removesuffix("_csv")
                times[name] = rows[:, 0]
                out[name] = rows[:, 1:1 + dim * dim].reshape(-1, dim, dim)
            else:
                raise ValueError
        if (not _TENSOR_REQUIRED <= set(out)
                or not np.array_equal(times["B0"], times["Phi"])):
            raise ValueError
    except (ValueError, StopIteration):
        raise MissingArtifact(f"{path}: malformed tensor body") from None
    return header, out


# ---------------------------------------------------------------------------
# BHRUN manifest (the one place timestamps are allowed)
# ---------------------------------------------------------------------------

def write_manifest(path, command, config_hash, tool_version, started_iso,
                   wall_time_s, inputs, outputs):
    """outputs maps each file to its writer's sha256, or None to hash it."""
    body = [f"command {command}",
            f"config {config_hash}",
            f"tool_version {tool_version}",
            f"started {started_iso}",
            f"wall_time_s {_F % wall_time_s}",
            f"blas_threads {blas_threads() or 'unpinned'}",
            f"scipy_blas_threads {scipy_blas_threads() or 'unpinned'}",
            f"cpus {cpus()}"]
    for p in inputs:
        body.append(f"input {os.path.basename(p)} {file_sha256(p)}")
    for p, digest in outputs.items():
        body.append(f"output {os.path.basename(p)} {digest or file_sha256(p)}")
    write_artifact(path, "BHRUN 1", {}, body)


# ---------------------------------------------------------------------------
# legacy VTK export
# ---------------------------------------------------------------------------

def write_vtk(path, vertices, simplices, values, cell_values=None):
    nv, dim = vertices.shape
    npv = simplices.shape[1]
    cell_type = {3: 5, 4: 10}[npv]
    lines = ["# vtk DataFile Version 3.0", "bh snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    pts = np.zeros((nv, 3))
    pts[:, :dim] = vertices
    lines += _rows(pts, [_F] * 3)
    lines.append(f"CELLS {len(simplices)} {len(simplices) * (npv + 1)}")
    lines += _rows(simplices, [str(npv)] + ["%d"] * npv)
    lines.append(f"CELL_TYPES {len(simplices)}")
    lines += [str(cell_type)] * len(simplices)
    lines.append(f"POINT_DATA {nv}")
    lines.append("SCALARS u double 1")
    lines.append("LOOKUP_TABLE default")
    lines += _rows(values, [_F])
    if cell_values is not None:
        lines.append(f"CELL_DATA {len(simplices)}")
        lines.append("SCALARS phase int 1")
        lines.append("LOOKUP_TABLE default")
        lines += _rows(cell_values, ["%d"])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
