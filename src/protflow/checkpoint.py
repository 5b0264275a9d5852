"""Self-describing binary checkpoint container, and the format of its metadata.

Layout: 4 magic bytes "PFLW", format version (u32 LE), header length
(u64 LE), a UTF-8 JSON header, then raw little-endian float32 tensor
payloads in header order. Header offsets are relative to the payload start;
the loader verifies magic, version, bounds, and overlap before touching any
payload bytes, and rejects tensors holding NaN or infinity. The header is
an object whose "tensors" list holds one object per tensor: a unique string
"name", a "shape" list of non-negative integers, an integer "offset" and
the "dtype" "<f4"; every other key is metadata. A checkpoint of a
pipeline kind (decoder, pipeline, flow, reflow) must carry the metadata its
commands read: "dim" and "clamp_k"; "l_max" and "length_dist", or "chains"
and "length_dists" for a multichain corpus (layout_meta writes them); and
"flow_cfg" for flow and reflow. "dim" follows model.D's rule
(config.is_latent_dim). Each other key has one reader, and the loader
checks a key, present or missing, by calling it: meta_chains
(multichain.ChainLayout, so each l_max in [1, multichain.L_MAX_CAP]),
meta_length_dists (seqio.LengthDistribution.from_dict) and flow_config
(flow.VectorFieldConfig). A reader raises MalformedHeader naming its key,
and a missing key fails its reader's rule. "clamp_k", a finite number > 0,
records latent.CLAMP_K; applying the smoothing does not read it. Writes are
atomic (fileio.write_atomic).

Parameters are dicts of named arrays; pack(params, prefix) stores each
under prefix + name, so a checkpoint is all a command needs to resume or
sample. Every part of the latent stack (encoder, decoder, smoothing,
compressor) is such a dict. unpack_pipeline checks each tensor of one
chain's stack against latent.pipeline_shapes and splits them by part, and
unpack_flow checks the flow's against flow.param_shapes, so a checkpoint
that disagrees with its model is an IncompatibleCheckpoint, not an error
deep inside a command.
"""

import hashlib
import json
import math
import struct

import numpy as np

from .config import is_latent_dim
from .errors import (
    BadMagic,
    CheckpointError,
    CorruptOffset,
    DataError,
    IncompatibleCheckpoint,
    LayoutMismatch,
    MalformedHeader,
    NonFiniteTensor,
    NonFiniteValue,
    VersionUnsupported,
)
from .fileio import write_atomic
from .flow import VectorFieldConfig, VectorFieldModel, param_shapes
from .latent import pipeline_shapes
from .multichain import ChainLayout, ChainSpec
from .numeric import ABOVE_0, FINITE, SIZE_CAP, is_int, is_number
from .seqio import LengthDistribution

MAGIC = b"PFLW"
VERSION = 1


def save_checkpoint(path, tensors, meta):
    """Write named tensors (stored as little-endian float32) plus JSON metadata."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr32 = np.asarray(arr, dtype="<f4")  # tobytes() below copies in C order
        if not np.all(np.isfinite(arr32)):
            raise NonFiniteValue(f"tensor {name!r} has non-finite entries")
        entries.append(
            {"name": name, "shape": list(arr32.shape), "dtype": "<f4", "offset": offset}
        )
        blobs.append(arr32.tobytes())
        offset += len(blobs[-1])
    header = dict(meta)
    header["tensors"] = entries
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    head = MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)) + header_bytes
    write_atomic(path, b"".join([head] + blobs), "checkpoint")


def load_checkpoint(path):
    """Read a checkpoint; returns (tensors dict of float32 arrays, meta dict)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e.strerror or e}") from None
    if len(data) < 16 or data[:4] != MAGIC:
        raise BadMagic(f"{path}: not a checkpoint (magic mismatch)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != VERSION:
        raise VersionUnsupported(version, VERSION)
    header_len = struct.unpack("<Q", data[8:16])[0]
    header_end = 16 + header_len
    if header_end > len(data):
        raise CorruptOffset(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptOffset(f"{path}: header is not valid JSON: {e}") from e
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise MalformedHeader(f"{path}: header must be an object with a 'tensors' list")
    payload = data[header_end:]
    tensors = {}
    spans = []
    for i, entry in enumerate(header["tensors"]):
        _check_entry(path, i, entry, tensors)
        if entry.get("dtype") != "<f4":
            raise CorruptOffset(f"{path}: unsupported tensor dtype {entry.get('dtype')!r}")
        shape = tuple(entry["shape"])
        size = math.prod(shape) * 4
        off = entry["offset"]
        if off < 0 or off + size > len(payload):
            raise CorruptOffset(
                f"{path}: tensor {entry['name']!r} spans [{off}, {off + size}) "
                f"outside payload of {len(payload)} bytes"
            )
        spans.append((off, off + size, entry["name"]))
        try:
            arr = np.frombuffer(payload[off : off + size], dtype="<f4").reshape(shape)
        except ValueError as e:  # more dimensions, or larger ones, than numpy holds
            raise MalformedHeader(f"{path}: tensor {entry['name']!r} shape {shape}: {e}") from e
        if not np.all(np.isfinite(arr)):
            raise NonFiniteTensor(f"{path}: tensor {entry['name']!r} has non-finite entries")
        tensors[entry["name"]] = arr
    spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise CorruptOffset(f"{path}: tensors {name_a!r} and {name_b!r} overlap")
    meta = {k: v for k, v in header.items() if k != "tensors"}
    _check_meta(path, meta)
    return tensors, meta


_PIPELINE_KINDS = ("decoder", "pipeline", "flow", "reflow")
# metadata a training stage carries over from the checkpoint it starts from:
# the latent stack's and the layout's (a flow stage writes its own flow_cfg)
CARRIED_META = ("dim", "clamp_k", "l_max", "length_dist", "chains", "length_dists")


def _check_meta(path, meta):
    """Raise MalformedHeader naming the key unless a pipeline-kind checkpoint
    carries each metadata key its kind needs, as that key's reader reads it."""
    kind = meta.get("kind")
    if kind not in _PIPELINE_KINDS:
        return
    if not is_latent_dim(meta.get("dim")):
        raise MalformedHeader(f"{path}: metadata 'dim' must be an even integer in [2, {SIZE_CAP}]")
    if not is_number(meta.get("clamp_k"), ABOVE_0, FINITE):
        raise MalformedHeader(f"{path}: metadata 'clamp_k' must be a finite positive number")
    try:
        meta_chains(meta)
        meta_length_dists(meta)
        if kind in ("flow", "reflow"):
            flow_config(meta)
    except MalformedHeader as e:
        raise MalformedHeader(f"{path}: {e}") from None


def _check_entry(path, k, entry, seen):
    """Raise MalformedHeader unless tensor entry k follows the header schema."""
    if not isinstance(entry, dict):
        raise MalformedHeader(f"{path}: tensor entry {k} is not an object")
    name = entry.get("name")
    if not isinstance(name, str):
        raise MalformedHeader(f"{path}: tensor entry {k} has no string 'name'")
    if name in seen:
        raise MalformedHeader(f"{path}: tensor {name!r} appears twice")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(is_int(x, 0) for x in shape):
        raise MalformedHeader(
            f"{path}: tensor {name!r} 'shape' must be a list of non-negative integers"
        )
    if not is_int(entry.get("offset")):
        raise MalformedHeader(f"{path}: tensor {name!r} 'offset' must be an integer")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- object <-> tensor packing ---------------------------------------------------


def _get(tensors, key):
    if key not in tensors:
        raise IncompatibleCheckpoint(f"missing tensor {key!r}")
    return np.asarray(tensors[key], dtype=np.float64)


def _get_shaped(tensors, prefix, shapes):
    """{name: tensor prefix + name as float64} for each name in shapes; raise
    IncompatibleCheckpoint unless every one is present with its shape."""
    out = {name: _get(tensors, prefix + name) for name in shapes}
    for name, shape in shapes.items():
        if out[name].shape != shape:
            raise IncompatibleCheckpoint(
                f"tensor {prefix + name!r} has shape {out[name].shape}, expected {shape}"
            )
    return out


def pack(params, prefix):
    """Named arrays -> checkpoint tensors, each named prefix + its name."""
    return {prefix + name: value for name, value in params.items()}


_STACK_PARTS = ("encoder", "decoder", "smoothing", "compressor")


def unpack_pipeline(tensors, dim, prefix="", parts=_STACK_PARTS):
    """{part: {name: float64 array}} for each of parts of the latent stack
    stored under prefix. Every tensor must have the shape pipeline_shapes
    gives for dim and the decoder's hidden and compressor's widths (the
    lengths of decoder.b1 and compressor.b_down)."""
    hidden = _get(tensors, prefix + "decoder.b1").size if "decoder" in parts else 0
    width = _get(tensors, prefix + "compressor.b_down").size if "compressor" in parts else 0
    shapes = {
        key: shape
        for key, shape in pipeline_shapes(dim, hidden, width).items()
        if key.partition(".")[0] in parts
    }
    out = {part: {} for part in parts}
    for key, value in _get_shaped(tensors, prefix, shapes).items():
        part, _, name = key.partition(".")
        out[part][name] = value
    return out


def pack_flow(model):
    return pack(model.params, "flow."), {"flow_cfg": model.cfg.to_dict()}


def unpack_flow(tensors, meta):
    if "flow_cfg" not in meta:
        raise IncompatibleCheckpoint("checkpoint carries no flow model")
    cfg = flow_config(meta)
    return VectorFieldModel(cfg, _get_shaped(tensors, "flow.", param_shapes(cfg)))


# --- metadata readers --------------------------------------------------------------


def layout_meta(chains, length_dists):
    """Checkpoint metadata for a layout and its length-distribution dicts:
    l_max and length_dist for the unnamed chain, chains and length_dists for
    named ones."""
    if not chains[0].name:
        return {"l_max": chains[0].l_max, "length_dist": length_dists[0]}
    return {
        "chains": [{"name": c.name, "l_max": c.l_max} for c in chains],
        "length_dists": {c.name: d for c, d in zip(chains, length_dists)},
    }


def meta_chains(meta):
    """The ChainSpecs of the layout layout_meta wrote: its named chains, or
    the unnamed chain of l_max. Either follows ChainSpec's and ChainLayout's
    rules."""
    if "chains" not in meta:
        key, pairs = "l_max", [("", meta.get("l_max"))]
    else:
        key, chains = "chains", meta["chains"]
        if not (isinstance(chains, list) and all(isinstance(c, dict) for c in chains)):
            raise MalformedHeader("metadata 'chains' must be a list of {name, l_max}")
        pairs = [(c.get("name"), c.get("l_max")) for c in chains]
    try:
        return ChainLayout([ChainSpec(name, l_max, None) for name, l_max in pairs]).chains
    except LayoutMismatch as e:
        raise MalformedHeader(f"metadata {key!r}: {e}") from None


def meta_length_dists(meta):
    """{chain name: LengthDistribution} from the metadata layout_meta wrote;
    the named chains' must cover every chain."""
    if "chains" not in meta:
        key, dists = "length_dist", {"": meta.get("length_dist")}
    else:
        key, dists = "length_dists", meta.get("length_dists")
        if not isinstance(dists, dict):
            raise MalformedHeader("metadata 'length_dists' must be an object")
        missing = {c.name for c in meta_chains(meta)} - set(dists)
        if missing:
            raise MalformedHeader(f"metadata 'length_dists' lacks chains {sorted(missing)}")
    try:
        return {name: LengthDistribution.from_dict(d) for name, d in dists.items()}
    except DataError as e:
        raise MalformedHeader(f"metadata {key!r}: {e}") from None


def flow_config(meta):
    """The VectorFieldConfig of metadata 'flow_cfg'."""
    try:
        return VectorFieldConfig.from_dict(meta.get("flow_cfg"))
    except ValueError as e:
        raise MalformedHeader(f"metadata 'flow_cfg' is not a vector-field config: {e}") from None
