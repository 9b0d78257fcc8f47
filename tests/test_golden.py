"""Byte-identity of the CLI: the sha256 of stdout and the exit code of
cli.main for every fixture at its default size, plus three larger ones,
under three flag sets.  Any change to a report, a printed circuit or an
estimate fails here.  When a change is meant to alter output, print the
new table with `PYTHONPATH=src python tests/test_golden.py` and say why
in the commit."""

import contextlib
import hashlib
import io

import pytest

from fabric_est.cli import main
from fabric_est.fixtures import fixture_names

SPECS = fixture_names() + ["ripple-adder:400", "array-mult:16", "ckks-box-blur:512"]

FLAG_SETS = {
    "critical-path": ["--critical-path"],
    "json-throughput": ["--emit", "json", "--throughput", "--batch", "1000"],
    "passes-print-ir": ["--lower-gates", "--canonicalize", "--sectionize", "--print-ir"],
}


def argv(spec, flags):
    args = ["--fixture", spec, *FLAG_SETS[flags]]
    if flags == "passes-print-ir":
        args.append("--ckks-estimate" if spec.startswith("ckks-") else "--cggi-estimate")
    return args


def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


# (spec, flag set) -> (sha256 of stdout, exit code)
GOLDEN = {
    ('and-gate', 'critical-path'): ('40a2c72efb9eb37711e61f41d4dbdcb294133066408e15b0a3b1c9d473de06f1', 0),
    ('and-gate', 'json-throughput'): ('509e67d42199ec24e99b95ba2f4ab48e865a573b1d4c4c1c570325fa8cf45d2e', 0),
    ('and-gate', 'passes-print-ir'): ('7c30af2081a88bd8b9aea4d002dbdf549d1e3a064a390efdffb9aba8421f8efd', 0),
    ('array-mult', 'critical-path'): ('3d9a49d9f5fbf7e69a87601a13a8cef8e0de5a388c5182e12ce918428ab168c3', 0),
    ('array-mult', 'json-throughput'): ('e9f658d9c3be315d94b76e679064bf13901f77d7953177e84d87d58263e4aab6', 0),
    ('array-mult', 'passes-print-ir'): ('a328b2bf8955a3ca78b7d24a608d2e14fabb5e688ea5d492cfd20725493f6ab2', 0),
    ('ckks-box-blur', 'critical-path'): ('f0ae4df284ecd3d6ccecb9200a7ca62c787dc8af1d3cdafad3afa20ed0410b9d', 0),
    ('ckks-box-blur', 'json-throughput'): ('bc8b547c8eb8864afc91fb5efe46152d3dffa1ff7a61d6239a3deb5ee7b29dcc', 0),
    ('ckks-box-blur', 'passes-print-ir'): ('8d990953773f830b95ec3fb10e3dc7260c0ba626bcef7ddcbc6c477c4a40953d', 0),
    ('ckks-dot-product', 'critical-path'): ('9f1d74a6d087459058d9a55678f8ee5e086974f2dfe79fd3aa3f679a485b1764', 0),
    ('ckks-dot-product', 'json-throughput'): ('20adb48ed7b9b9c0e80bdbb12f906a8732af5d19a200b8005aaa98dd1cf9c11f', 0),
    ('ckks-dot-product', 'passes-print-ir'): ('a19070ae1e9dbda78d4119fca44b0751ad77b61a843107ab4e5f46c8fd3d4fef', 0),
    ('ckks-simple-sum', 'critical-path'): ('231de574c5c1e34bd7accb7edc44ae4074dce45404a656f337d87ac75202f76b', 0),
    ('ckks-simple-sum', 'json-throughput'): ('a43ebbe1b702d51fd51c2e801f94f16a3745da254647476f75487d0bb44d28cd', 0),
    ('ckks-simple-sum', 'passes-print-ir'): ('f51f663638262d454cf55b590e1eedbe439478394af4a103c79986edd9b83d66', 0),
    ('full-adder', 'critical-path'): ('716ef60d65ee745e064dd114aeb2ca9cbff47f002f4e7bd92b9918c1ef68db7f', 0),
    ('full-adder', 'json-throughput'): ('f5e1ed531b01f02cdbcde7dae839e0d101d4b3af8bb4f7415ca9582a818f117e', 0),
    ('full-adder', 'passes-print-ir'): ('b159c801afa4ae623597338fea35619362eed1d6a33097726aec66ef16a45bb5', 0),
    ('half-adder', 'critical-path'): ('40a2c72efb9eb37711e61f41d4dbdcb294133066408e15b0a3b1c9d473de06f1', 0),
    ('half-adder', 'json-throughput'): ('3052f73fbfa83b674cff0e209ee0d9128b625cf74053ea4f8f1df84d2b1b12a4', 0),
    ('half-adder', 'passes-print-ir'): ('154cfc68f3665511df3bec3aef290f4ab79a99ae5f489a7702ccedd6fec46640', 0),
    ('lut-canonicalize', 'critical-path'): ('91f5e854e92c57725fd217cf782e468944b42a5d672121273012f2dc3ba57c1a', 0),
    ('lut-canonicalize', 'json-throughput'): ('b396a059593aae9dfcc9a13e508b876eae8992d06a58b14ae03de07d3aac81dc', 0),
    ('lut-canonicalize', 'passes-print-ir'): ('90254132388eadb7f771ab34a76dee0213da9b0546a6e3ccf09579c9be100b4d', 0),
    ('ripple-adder', 'critical-path'): ('11760455b679cd66d0ac7de305ecbf41a700a95d8c840407fadc75e96534aa57', 0),
    ('ripple-adder', 'json-throughput'): ('7917cf404cc6274409c0cfb7f0328bbb7a14087fd36c5a84c197a0e1bd90d4ec', 0),
    ('ripple-adder', 'passes-print-ir'): ('e5d000b39a5cfbb052c0ba9c67f6784ab7251972dbbeba818be880bfbdbba22a', 0),
    ('table3-mult8', 'critical-path'): ('0bcdede568b8c3ee415e46e865c43e47f0d3a1b53e06ce90af1bda3d12e0f04b', 0),
    ('table3-mult8', 'json-throughput'): ('f852e817353638d8b0927972e546824b6adf96e9d4c9f6d7169c6962e6b301b7', 0),
    ('table3-mult8', 'passes-print-ir'): ('cc80dbb3a5493c7d43b88ef2cc7e3cd4f2fbb36eb15622e55d900af8a03244d7', 0),
    ('ripple-adder:400', 'critical-path'): ('498b964e0d3119a2bdb261a78d2e40a2023c9d0603fd4bbe6baf36a1d4b3834e', 0),
    ('ripple-adder:400', 'json-throughput'): ('782a2d428ae31a96fa6e8cab0812ac130b70c5cc426f6eee642549e818898ec3', 0),
    ('ripple-adder:400', 'passes-print-ir'): ('361dfce3ff9d5780fac4cfa889fbefc591d2362368c4a2f83678eb797d659656', 0),
    ('array-mult:16', 'critical-path'): ('080cf7d1dc04710866ac9a3745113d0bdb014430201eeea9916c132fb0c8f194', 0),
    ('array-mult:16', 'json-throughput'): ('b59aab4a12c76d75a4e4ee58cdd8de8830068f6503418bf6c39c04bd5f762a7c', 0),
    ('array-mult:16', 'passes-print-ir'): ('e9188cc488bab76633a31a0da3c02ecc263d50de5a3fba30a236386efe64fa93', 0),
    ('ckks-box-blur:512', 'critical-path'): ('d5cc7451150ee47ef58bad5044b772a8f2d9763c261a36c46238a5e4ef7a5f31', 0),
    ('ckks-box-blur:512', 'json-throughput'): ('c37a43366ef60a26a4c14f888473ed04debc90dd77e1d999f972a3a0df1c79f8', 0),
    ('ckks-box-blur:512', 'passes-print-ir'): ('33cb2b8e14eed360718e4c709814cd3e3ebbbbb7ca24c7bd63da28230497761a', 0),
}


@pytest.mark.parametrize("flags", list(FLAG_SETS))
@pytest.mark.parametrize("spec", SPECS)
def test_output_is_unchanged(spec, flags):
    assert run(argv(spec, flags)) == GOLDEN[spec, flags]


if __name__ == "__main__":
    print("GOLDEN = {")
    for spec in SPECS:
        for flags in FLAG_SETS:
            print(f"    ({spec!r}, {flags!r}): {run(argv(spec, flags))!r},")
    print("}")
