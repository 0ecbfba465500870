"""Run the suite against this checkout's src/ without an install: it goes first
on the tests' import path and on the PYTHONPATH of the Python processes they start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
