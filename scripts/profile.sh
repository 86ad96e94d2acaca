#!/usr/bin/env bash
# Where does a command's main thread spend its time? Samples the
# thread's instruction pointer at 10 kHz and prints three tables through
# `addr2line -i`: innermost frames (the function, inlined or not, whose
# code was running), inclusive frames (every function on each sample's
# inline chain) and source lines.
#
#   scripts/profile.sh -- CMD [ARGS...]
#
# A leading `dmdp` in CMD runs a release build with line tables, built
# here into target/profile/, a target directory of its own. Only the
# main thread is sampled, so run campaigns at `--jobs 1`, which executes
# every job on it. Needs cc, addr2line and python3; no perf, hardware
# counters or debugger. The sampler is scripts/profile-sampler.c.
#
# Example, the sampled Huge benchmark campaign:
#   scripts/profile.sh -- dmdp campaign --sampled --scale huge \
#       --model all --jobs 1 --force --quiet --out /tmp/sampled.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
target="$root/target/profile"
if [ "${1:-}" != -- ] || [ $# -lt 2 ]; then
    echo "usage: $0 -- CMD [ARGS...]" >&2
    exit 2
fi
shift

(cd "$root" && CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$target" \
    cargo build --release -q -p dmdp-bench --bin dmdp)
cc -O2 -shared -fPIC -o "$target/profile-sampler.so" "$root/scripts/profile-sampler.c"

cmd=("$@")
if [ "${cmd[0]}" = dmdp ]; then cmd[0]="$target/release/dmdp"; fi
exe=$(command -v "${cmd[0]}")
samples=$(mktemp)
trap 'rm -f "$samples"' EXIT
PROFILE_SAMPLER_OUT="$samples" LD_PRELOAD="$target/profile-sampler.so" "${cmd[@]}"

python3 - "$exe" "$samples" "$root" <<'EOF'
import collections
import subprocess
import sys

exe, path, root = sys.argv[1:4]
samples = [int(line, 16) for line in open(path) if line.strip()]
if not samples:
    sys.exit("profile: no samples (did the work run on the main thread?)")
counts = collections.Counter(samples)
inside = sorted(a for a in counts if a)


def short(where):
    """A source position relative to the repo, or to the Rust library."""
    where = where.split(" (discriminator")[0]
    if where.startswith(root + "/"):
        return where[len(root) + 1:]
    for cut in ("/library/", "/src/"):
        if cut in where:
            return where.split(cut, 1)[1]
    return where


# With -a each address opens its block, followed by one (function,
# file:line) pair per inline level, innermost first.
text = "".join(f"{a:#x}\n" for a in inside)
out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", exe], input=text,
                     capture_output=True, text=True, check=True).stdout.splitlines()
chains, i = {0: [("(outside the executable)", "(outside the executable)")]}, 0
for a in inside:
    i += 1
    chain = []
    while i < len(out) and not out[i].startswith("0x"):
        chain.append((out[i][:110], short(out[i + 1])))
        i += 2
    chains[a] = chain or [("??", "??")]

innermost, inclusive, lines = (collections.Counter() for _ in range(3))
for a, n in counts.items():
    innermost[chains[a][0][0]] += n
    lines[chains[a][0][1]] += n
    for fn in {fn for fn, _ in chains[a]}:
        inclusive[fn] += n

total = len(samples)
print(f"profile: {total} samples of the main thread ({total / 10000:.2f} s at 10 kHz), "
      f"{counts[0]} outside the executable")
for title, table in (("innermost frames", innermost), ("inclusive frames", inclusive),
                     ("source lines (innermost)", lines)):
    print(f"\n== {title}\n  share  samples  where")
    for what, n in table.most_common(25):
        print(f"{100 * n / total:6.1f}%  {n:7d}  {what}")
EOF
