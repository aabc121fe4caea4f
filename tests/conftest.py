"""The runtime is numpy only: any scipy import during a test fails."""

import sys

sys.modules["scipy"] = None
