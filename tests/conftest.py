import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every failing property test prints its @reproduce_failure blob; the
# installed Hypothesis defaults print_blob to False. Per-test @settings
# inherit this profile for whatever they leave unset.
settings.register_profile("kmprop", print_blob=True)
settings.load_profile("kmprop")
