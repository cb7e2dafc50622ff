#!/usr/bin/env bash
# Smoke test of an installed ioc2regex: every subcommand through the
# `ioc2regex` console script, with the bundled data files, outside the
# source tree.  It writes its inputs and outputs to the current directory,
# so run it from an empty one:
#
#   python -m pip install .        # or: pip install -e . --no-build-isolation
#   mkdir -p /tmp/smoke && cd /tmp/smoke && bash /path/to/scripts/smoke_installed.sh
#
# Exits non-zero at the first check that fails.
set -euo pipefail

# The package imports only the standard library, the HTTP client too: after
# importing the package and its CLI, and one remote call to a loopback port
# that refuses it (a BackendError), every module loaded since start-up is
# the package's or the standard library's.
python - <<'EOF'
import sys

at_start_up = set(sys.modules)
import socket

import ioc2regex
import ioc2regex.cli
from ioc2regex.generation import BackendError, RemoteBackend

with socket.socket() as closed:  # bound but not listening: connections are refused
    closed.bind(("127.0.0.1", 0))
    backend = RemoteBackend(f"http://127.0.0.1:{closed.getsockname()[1]}/v1", timeout=5)
    try:
        backend.propose(None, "prompt")
        sys.exit("a refused remote call returned a pattern")
    except BackendError:
        pass
foreign = sorted(
    name for name in set(sys.modules) - at_start_up
    if name.partition(".")[0] not in sys.stdlib_module_names | {"ioc2regex"}
)
if foreign:
    sys.exit(f"modules from outside the standard library: {foreign}")
EOF

kb_dir=$(python -c "import ioc2regex, pathlib; print(pathlib.Path(ioc2regex.__file__).parent / 'data' / 'kb')")
ioc2regex kb-validate "$kb_dir"/*.json
# A misspelt key in a knowledge-base or replay file is exit 1, naming the key.
echo '{"path": ["Users/Public"]}' > misspelt-kb.json
rc=0; ioc2regex kb-validate misspelt-kb.json 2> misspelt-kb.err || rc=$?
test "$rc" = 1
grep -q "unknown key 'path'" misspelt-kb.err
echo '["C:\\Users\\Public\\x.bat"]' > iocs.json
ioc2regex generate --input iocs.json --output products.json --dump-annotations annotations.json
python -c "import json, sys; sys.exit(json.load(open('products.json'))['summary']['generated'] != 1)"
python -c "import json, sys; sys.exit([a['rejection_reason'] for a in json.load(open('annotations.json'))] != [None])"
# A quoted command loses its extension and keeps its capture.
echo '["\"cmd.exe\" /c whoami"]' > quoted-iocs.json
ioc2regex generate --input quoted-iocs.json --output quoted-products.json
python -c "import json, sys; g = json.load(open('quoted-products.json'))['records'][0]['capture_groups']; sys.exit(not {'cmd', '/c'} <= set(g))"
echo '{"emissions": ["(?i).*(unclosed", "(?i).*Users\\\\Nobody\\\\.*", "(?i).*?Users\\\\Nobody.*?x", "(?i).*Users\\\\Public\\\\x\\.exe", "[a-z"], "per_record": true, "fallback": "template"}' > replay.json
ioc2regex generate --backend scripted --replay replay.json --input iocs.json --output repaired.json
python -c "import json, sys; sys.exit(json.load(open('repaired.json'))['summary']['generated'] != 1)"
echo '{"emissions": ["(?i).*Users\\\\Public\\\\.*"], "per-record": true}' > misspelt-replay.json
rc=0; ioc2regex generate --backend scripted --replay misspelt-replay.json --input iocs.json --output misspelt.json 2> misspelt-replay.err || rc=$?
test "$rc" = 1
grep -q "unknown key 'per-record'" misspelt-replay.err
test ! -e misspelt.json
python -c "import json, sys; p = [json.load(open(f))['records'][0]['pattern'] for f in ('products.json', 'repaired.json')]; sys.exit(p[0] != p[1])"
echo '[{"text": "C:\\Users\\Public\\y.bat", "kind": "file_path", "capture_groups": ["users", "public"]}]' > truths.json
# So is a misspelt key in an input-list or ground-truth object.
echo '[{"text": "C:\\Users\\Public\\x.bat", "source-id": "report-7"}]' > misspelt-iocs.json
rc=0; ioc2regex generate --input misspelt-iocs.json --output misspelt-products.json 2> misspelt-iocs.err || rc=$?
test "$rc" = 1
grep -q "misspelt-iocs.json\[0\]: unknown key 'source-id'" misspelt-iocs.err
test ! -e misspelt-products.json
echo '[{"text": "C:\\Users\\Public\\y.bat", "kind": "file_path", "capture_groups": ["users"], "dataset-id": "scenario-1"}]' > misspelt-truths.json
rc=0; ioc2regex evaluate --products products.json --truths misspelt-truths.json --output misspelt-report.json 2> misspelt-truths.err || rc=$?
test "$rc" = 1
grep -q "misspelt-truths.json\[0\]: unknown key 'dataset-id'" misspelt-truths.err
test ! -e misspelt-report.json
ioc2regex evaluate --products products.json --truths truths.json --output report.json --dump-matches matches.json
python -c "import json, sys; sys.exit(json.load(open('report.json'))['reports'][0]['hit_rate'] != 1.0)"
python -c "import json, sys; t = json.load(open('truths.json'))[0]['text']; sys.exit([m['matched'] for m in json.load(open('matches.json'))] != [[t]])"
# A record whose pattern is outside the dialect costs that record: exit 2,
# named under `invalid`, and the other record is still scored.
python -c "import json; p = json.load(open('products.json')); p['records'].append({**p['records'][0], 'ioc_id': 'bad', 'pattern': '(a+)+\$'}); json.dump(p, open('one-bad.json', 'w'))"
rc=0; ioc2regex evaluate --products one-bad.json --truths truths.json --output one-bad-report.json || rc=$?
test "$rc" = 2
python -c "import json, sys; r = json.load(open('one-bad-report.json')); sys.exit([i['ioc_id'] for i in r['invalid']] != ['bad'] or r['reports'][0]['per_regex_fpr'] != [['ioc-0000', 0.0], ['bad', None]])"
ioc2regex ablate --mode C-R --input iocs.json --output ablated.json --truths truths.json --report ablated-report.json
python -c "import json, sys; sys.exit(json.load(open('ablated.json'))['summary']['generated'] != 1)"
python -c "import json, sys; sys.exit(json.load(open('ablated-report.json'))['reports'][0]['hit_rate'] != 1.0)"
echo '{"HKEY_CURRENT_USER": "HKCU"}' > roots.json
echo '["HKEY_CURRENT_USER\\Software\\Microsoft\\Windows\\CurrentVersion\\Run\\x.exe"]' > reg-iocs.json
ioc2regex generate --input reg-iocs.json --output reg-products.json --registry-roots roots.json
python -c "import json, sys; sys.exit(json.load(open('reg-products.json'))['summary']['registry_roots'] != {'hkey_current_user': 'HKCU'})"
echo '[{"text": "HKEY_CURRENT_USER\\Software\\Microsoft\\Windows\\CurrentVersion\\Run\\y.exe", "kind": "registry_key", "capture_groups": ["hkcu", "software", "run"]}]' > reg-truths.json
ioc2regex evaluate --products reg-products.json --truths reg-truths.json --output reg-report.json
python -c "import json, sys; sys.exit(json.load(open('reg-report.json'))['reports'][0]['hit_rate'] != 1.0)"
echo '["\\ \\HKEY_USERS\\Software\\Microsoft\\Windows\\CurrentVersion\\Run\\x.exe"]' > blank-head-iocs.json
ioc2regex generate --input blank-head-iocs.json --output blank-head-products.json
python -c "import json, sys; r = json.load(open('blank-head-products.json'))['records'][0]; sys.exit(r['kind'] != 'registry_key' or not r['normalized'].startswith('HKU\\\\'))"
# The template joins keeps with the indicator's own delimiters, and the kernel
# spelling of a registry root keeps its hive.
echo '["/etc/cron.d/evil", "\\REGISTRY\\MACHINE\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run\\evil"]' > shape-iocs.json
ioc2regex generate --input shape-iocs.json --output shape-products.json
python -c "import json, sys; r = json.load(open('shape-products.json'))['records']; sys.exit(len(r) != 2 or 'etc/' not in r[0]['pattern'] or not r[1]['normalized'].startswith('HKLM\\\\'))"
echo '[{"text": "C:\\Users\\Public\\y.bat", "kind": "file_path", "capture_groups": ["users", "alpha", "beta"]}]' > two-missing.json
for seed in 1 2; do
  PYTHONHASHSEED=$seed ioc2regex generate --input iocs.json --output products-$seed.json
  PYTHONHASHSEED=$seed ioc2regex evaluate --products products-$seed.json --truths truths.json --output report-$seed.json
  if PYTHONHASHSEED=$seed ioc2regex evaluate --products products-$seed.json --truths two-missing.json --output missing-$seed.json 2> missing-$seed.err; then exit 1; fi
done
cmp products-1.json products-2.json
cmp report-1.json report-2.json
cmp missing-1.err missing-2.err
for f in products.json annotations.json quoted-products.json repaired.json report.json matches.json ablated.json ablated-report.json reg-products.json reg-report.json blank-head-products.json shape-products.json one-bad-report.json; do
  python -c "import json, sys; t = open(sys.argv[1], encoding='utf-8').read(); sys.exit(t != json.dumps(json.loads(t), indent=2, sort_keys=True) + '\n' and sys.argv[1] + ' differs from json.dumps')" "$f"
done
echo "installed package smoke test passed"
