import sys
from pathlib import Path

# The benchmark imports the package from the source tree it measures.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
