"""Inverted-index build, storage and reading. The names below load their
module on first use (PEP 562), so a process that only reads segments — a
scorer actor — never loads the writers (``build``, ``compact``,
``delete``, ``writer``) or ``report``."""

from .. import _lazy

_EXPORTS = {
    "append_index": ".build", "build_index": ".build", "segment_complete": ".build",
    "compact_index": ".compact",
    "delete_conversations": ".delete", "delete_docs": ".delete",
    "BLOCK_SIZE": ".codec", "decode_postings": ".codec", "decode_varints": ".codec",
    "delta_decode": ".codec", "delta_encode": ".codec", "encode_postings": ".codec",
    "encode_varints": ".codec",
    "build_report": ".report",
    "SegmentReader": ".segment", "load_segments": ".segment",
}

__all__ = ["commit", *_EXPORTS]
__getattr__ = _lazy(globals(), _EXPORTS)
