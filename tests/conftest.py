from hypothesis import settings

# Every run draws the same examples, and no example database is written.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
