from hypothesis import settings

# property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("deterministic")
