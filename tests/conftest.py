"""Shared test data: the toy corpus text; puts ``oracles`` on the import path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

TOY_RAW = (
    "The cat sits on the mat. The dog sits on the log. "
    "The cat chases the mouse! The dog chases the cat."
)
