"""Run a command and bound its peak resident set size.

Usage: python tests/peak_rss.py BOUND_MB COMMAND...

The command runs as this process's only child; its peak RSS (Linux
``ru_maxrss``, in kB) is printed in MB, and the exit status is non-zero when
the command fails or its peak is above BOUND_MB.
"""

import resource
import subprocess
import sys

bound_mb, *command = sys.argv[1:]
subprocess.run(command, check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB of", *command)
sys.exit(f"peak RSS {peak_mb:.1f} MB is above {bound_mb} MB" if peak_mb > float(bound_mb) else 0)
