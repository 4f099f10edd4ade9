from . import commit  # noqa: F401
from .build import append_index, build_index, segment_complete  # noqa: F401
from .compact import compact_index  # noqa: F401
from .delete import delete_conversations, delete_docs  # noqa: F401
from .codec import (  # noqa: F401
    BLOCK_SIZE,
    decode_postings,
    decode_varints,
    delta_decode,
    delta_encode,
    encode_postings,
    encode_varints,
)
from .report import build_report  # noqa: F401
from .segment import SegmentReader, load_segments  # noqa: F401
