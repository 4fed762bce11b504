"""Outputs built from K4 and octahedron pieces alone take no float from the
numeric solver, so they are the same bytes under every BLAS kernel.

The `stacked` and `nested` benchmark corpora and the pinned digests of such
inputs are computed in child processes that force OpenBLAS's kernel with
OPENBLAS_CORETYPE, set in the child's environment only, and compared with
this process's.  Run as a script, this file prints those digests as JSON.
"""

import hashlib
import importlib.util
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
from conftest import chain, implant_faces, implanted

SRC = Path(tricontact.__file__).parent
BENCH = SRC.parents[1] / "perfbench"
KERNELS = ("Haswell", "Sandybridge", "Nehalem")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus(workload: str):
    spec = importlib.util.spec_from_file_location("perfbench_corpus", BENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return sorted(corpus.WORKLOADS[workload](), key=lambda item: item[0])


def digests() -> dict[str, str]:
    """Per corpus, sha256 over each instance's representation, report and
    drawing texts as `tricontact run` writes them, in name order; and the
    digests that `test_representation_digest_pinned` and
    `test_drawing_digest_pinned[implanted]` pin."""
    out = {}
    for workload in ("stacked", "nested"):
        h = hashlib.sha256()
        for _name, T in _corpus(workload):
            rep = represent(T)
            report = full_report(rep, T, with_faces=True, with_drawing=True)
            for obj in (rep.to_json(), report.to_json(), report.drawing.to_json()):
                h.update(_dump(obj).encode())
        out[workload] = h.hexdigest()
    out["implanted100_3x20"] = _sha(_dump(represent(implanted(100, 3, 20)).to_json()))
    out["chain20_5d6"] = _sha(_dump(represent(chain(20, 5, 6)).to_json()))
    T = implant_faces(planar.gen_stacked(30, 1), (0, 7))
    out["drawing_implanted"] = _sha(json.dumps(extract_drawing(represent(T), T).to_json(),
                                               sort_keys=True))
    return out


@pytest.fixture(scope="module")
def default_digests():
    return digests()


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
