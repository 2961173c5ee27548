import sys
from pathlib import Path

# The benchmark's modules are scripts beside each other, not a package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
