import pytest

from ioc2regex import annotate, default_store, make_record
from ioc2regex.knowledge import KnowledgeStore

FIG1_SCHTASKS = (
    'schtasks /create /s <remote_host> /u "<username>" /p "<password>" '
    '/ru "SYSTEM" /tn one /sc DAILY /tr "c:\\users\\public\\11.bat" /F'
)
FIG1_PATH = r"C:\Users\Public\11.bat"

# The words of the fuzz corpus: registry heads, drives, directories, file
# names, commands and flags.
FUZZ_WORDS = (
    ["HKEY_CURRENT_USER", "HKCU", "REGISTRY", r"REGISTRY\HKEY_CURRENT_USER",
     r"\Registry\HKCU", r"Registry\Registry", r"\ hkcu", r"Registry\ foo", "\\ ",
     r"\REGISTRY\MACHINE", r"\REGISTRY\USER", r"Registry\ machine"],
    ["C:", "D:", "%USERPROFILE%", "%TEMP%", "%APPDATA%", "%UNKNOWN%"],
    ["Users", "pam", "Public", "Windows", "System32", "Temp", "<username>"],
    ["a.exe", "11.bat", "x.dll", "notes.txt"],
    ["cmd.exe", "schtasks", "curl.exe", "unknown.exe"],
    ["/c", "/create", "--get", "-x", "/f"],
)


@pytest.fixture(scope="session")
def store():
    return default_store()


@pytest.fixture(scope="session")
def path_record(store):
    return make_record(FIG1_PATH, store, source_id="fig1-path")


@pytest.fixture(scope="session")
def path_annotation(store, path_record):
    return annotate(path_record, store)


@pytest.fixture(scope="session")
def schtasks_record(store):
    return make_record(FIG1_SCHTASKS, store, source_id="fig1-schtasks")


@pytest.fixture(scope="session")
def schtasks_annotation(store, schtasks_record):
    return annotate(schtasks_record, store)


def tiny_store(paths=(), registry=(), commands=()) -> KnowledgeStore:
    """Build a throwaway store from hierarchy strings / command tuples."""
    return KnowledgeStore.from_dict(
        {
            "version": "test",
            "paths": list(paths),
            "registry": list(registry),
            "commands": [
                {"name": name, "parameters": list(params)} for name, params in commands
            ],
        }
    )
