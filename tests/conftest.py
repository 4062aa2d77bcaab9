import os
import sys

from hypothesis import settings

# allow running pytest from a fresh checkout without an editable install
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("deterministic")
