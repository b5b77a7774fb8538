"""Mental and perceptual load estimation from cardiac, pupil, and driving signals."""

__version__ = "0.1.0"

DEFAULT_SEED = 7
FORMAT_VERSION = 3
