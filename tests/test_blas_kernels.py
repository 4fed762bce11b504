"""No float reaches a representation, so every output is the same bytes
under every BLAS kernel; only the verifier's screens run on numpy, and they
decide nothing alone.

The three benchmark corpora and the pinned representation and drawing
digests are computed in child processes that force OpenBLAS's kernel with
OPENBLAS_CORETYPE, set in the child's environment only, and compared with
this process's.  Run as a script, this file prints those digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricontact
from tricontact import planar
from tricontact.assemble import represent
from tricontact.verify import extract_drawing, full_report
from conftest import bench_corpus, chain, implant_faces, implanted

SRC = Path(tricontact.__file__).parent
KERNELS = ("Haswell", "Sandybridge", "Nehalem")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Per corpus, sha256 over each instance's representation, report and
    drawing texts as `tricontact run` writes them, in name order; and the
    digests that `test_representation_digest_pinned` and
    `test_drawing_digest_pinned[dw8]` and `[implanted]` pin."""
    out = {}
    for workload in ("stacked", "fourconn", "nested"):
        h = hashlib.sha256()
        for _name, T in bench_corpus(workload):
            rep = represent(T)
            report = full_report(rep, T, with_faces=True, with_drawing=True)
            for obj in (rep.to_json(), report.to_json(), report.drawing.to_json()):
                h.update(_dump(obj).encode())
        out[workload] = h.hexdigest()
    out["implanted100_3x20"] = _sha(_dump(represent(implanted(100, 3, 20)).to_json()))
    out["chain20_5d6"] = _sha(_dump(represent(chain(20, 5, 6)).to_json()))
    for name, T in (("dw8", planar.double_wheel(8)),
                    ("implanted", implant_faces(planar.gen_stacked(30, 1), (0, 7)))):
        out[f"drawing_{name}"] = _sha(json.dumps(extract_drawing(represent(T), T).to_json(),
                                                 sort_keys=True))
    return out


@pytest.fixture(scope="module")
def default_digests():
    return digests()


# sha256 of each corpus's texts, as `digests` takes them
CORPUS_DIGESTS = {
    "stacked": "e71d643481e2f93adceceefee6505c482f7dc932567986dc8bb254f622d4702c",
    "fourconn": "2709d44f01cde24e31c68b95825d4be7673ee0676be05743431ddcf0852e4c48",
    "nested": "10d8b8d4b7df9d8bcdef79cd74bcc6f5af7d2e230578adc9d075fa9094b4bd90",
}


def test_corpus_digests_pinned(default_digests):
    assert {k: default_digests[k] for k in CORPUS_DIGESTS} == CORPUS_DIGESTS


@pytest.mark.parametrize("kernel", KERNELS)
def test_same_bytes_under_every_kernel(default_digests, kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent),
                                                        os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=600, check=True)
    if "Core:" not in child.stderr:
        pytest.skip("numpy's BLAS does not report its kernel, so none was forced")
    assert f"Core: {kernel}" in child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == default_digests


if __name__ == "__main__":
    print(json.dumps(digests(), sort_keys=True))
