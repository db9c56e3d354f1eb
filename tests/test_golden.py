"""Golden digests: the SHA-256 of every CLI output file on small configs.

A refactor that claims to change no output bytes must pass these
unchanged.  A change that alters bytes on purpose re-pins the digests and
says why in CHANGES.md.  Float cells print at 17 significant digits, so
the digests also pin the float64 arithmetic of the numpy build in use.
"""

import hashlib

import pytest

from fkips.cli import main as cli_main

RUN = """
[run]
n_particles = 40
steps = 4
replicates = 5
seed = 13
"""

CLASSIC = """
[flow]
initial = uniform
potentials = 1 1.5 2; 2 1 1.5; 1.5 2 1; 1 2 1.2
kernel = 0.4 0.3 0.3; 0.3 0.4 0.3; 0.3 0.3 0.4

[algorithm]
kind = classic
""" + RUN

# Six states on a lazy ring, whose kernel rows are zero off three entries,
# at N = 20 < d^2: the count engine draws the moves one particle at a time.
RING6 = "; ".join(
    " ".join(str(w) for w in row)
    for row in (
        (0.5, 0.25, 0, 0, 0, 0.25), (0.25, 0.5, 0.25, 0, 0, 0), (0, 0.25, 0.5, 0.25, 0, 0),
        (0, 0, 0.25, 0.5, 0.25, 0), (0, 0, 0, 0.25, 0.5, 0.25), (0.25, 0, 0, 0, 0.25, 0.5),
    )
)

CLASSIC_SPARSE = f"""
[flow]
initial = uniform
potentials = 1 1.5 2 1.2 1.8 1.1; 2 1 1.5 1.9 1.1 1.3; 1.5 2 1 1.1 1.3 1.9; 1 2 1.2 1.5 1 1.4
kernel = {RING6}

[algorithm]
kind = classic
""" + RUN.replace("n_particles = 40", "n_particles = 20")

BOUNDED = CLASSIC + """
[checks]
regime = bounded
a = 0.5
g_sup = 2.0
y_values = 1 2
"""

K1 = "0.4 0.3 0.3; 0.3 0.4 0.3; 0.3 0.3 0.4"
K2 = "0.5 0.25 0.25; 0.4 0.35 0.25; 0.45 0.25 0.3"

DECREASING = f"""
[flow]
initial = 0.2 0.3 0.5
potentials = 1 1.5 1.2; 1.25 1 1.1; 1 1.05 1.125; 1.0625 1 1.03
kernels = {K1}; {K2}; {K1}; {K2}

[algorithm]
kind = classic

[checks]
regime = decreasing
a = 0.5
y_values = 1 2
""" + RUN

ISA = """
[problem]
dim = 4
v = 0 0.6 1 0.3
m = uniform
proposal = lazy-ring 0.5

[algorithm]
kind = isa

[schedule]
mode = constant
beta0 = 0.0
delta = 0.5
steps = 4
a = 0.5
k0 = 2

[checks]
epsilon_level = 0.5
eps_prime = 0.25
y_values = 2
""" + RUN

# y < 0 has no probabilistic meaning (e^-y > 1, so every exceedance row
# would pass), so a negative confidence exponent is a config error: exit 2
# at parse time, before any output is written.
ISA_EXCEEDANCE = ISA.replace("y_values = 2", "y_values = -31.25")

ADAPTIVE = """
[problem]
dim = 4
v = 0.5 0.65 0.8 1.0
m = uniform
proposal = lazy-ring 0.25

[algorithm]
kind = adaptive

[adaptive]
epsilon = 0.75
mcmc_iters = 3
""" + RUN

# Kernels rebuilt at each replicate's realized inverse temperature.
ADAPTIVE_MUTATION = ADAPTIVE.replace("mcmc_iters = 3", "mcmc_iters = 3\nmutation = adaptive")

# At N = 40 and 5 replicates several tail-shape frequencies lie strictly
# between 0 and 1, so verify.csv pins the adaptive engine's draws.
VERIFY_ADAPTIVE = ADAPTIVE + """
[checks]
a = 0.6
s_values = 0.05 0.1 0.15
y_values = 1 2
"""

# The same checks with each replicate's kernels built at its realized
# inverse temperature: the per-row path of the adaptive step rule.
VERIFY_ADAPTIVE_MUTATION = VERIFY_ADAPTIVE.replace(
    "mcmc_iters = 3", "mcmc_iters = 3\nmutation = adaptive"
)

# (command, config, expected exit code, {output file: sha256})
CASES = {
    "run-classic": ("run", CLASSIC, 0, {
        "oracle.csv": "a0709517c5854440f55fc600ee14aefa5af99458d2b04c4792b4f2c2dcdeb455",
        "raw.csv": "04b75948d44002b362924f318941339e6181498979dc05718254de9410e1b4a9",
        "stats.csv": "5c65c05f1d0f42e8392c4508d26ac4ac452318d6a6eb83d57fd31511f3356f5c",
    }),
    "run-classic-per-particle": ("run", CLASSIC_SPARSE, 0, {
        "oracle.csv": "36086c5f6ec27f0e2b898516e705bae445e0e5e3ffba65537a10854da7ba201f",
        "raw.csv": "308fe2030bfc93c554cd5ebc576b81c372c1f5bfb058a2ae34b645b1d460b34a",
        "stats.csv": "96282aeb1d5a88e65e66475caec177babb157cb3f474c2348c73f081524aa6b4",
    }),
    "run-isa": ("run", ISA, 0, {
        "oracle.csv": "21e469af1aab8ee64e0144b3c2e05462c73e03e2a9e0f38d4e7300ee9896e1ee",
        "raw.csv": "d7492d8a56051b25629492b2448210043daab8fd81a673d24f9d3918def5495a",
        "stats.csv": "325d52e31d44dab27b022242412ff4dc26ab2ed5ceeb33937e471d504ae0b516",
    }),
    "adaptive": ("adaptive", ADAPTIVE, 0, {
        "raw.csv": "2102999d4b3fbae64de20f0b1a3d105ed1873a7741051e449b3323ba0c7cab6e",
        "stats.csv": "516793d41f0673d1b31d39b1f14f4788af9f49271d17fe285652515f963d5ac8",
    }),
    "adaptive-mutation": ("adaptive", ADAPTIVE_MUTATION, 0, {
        "raw.csv": "10b20c6d8a9b3fca6ee6b0c271823e07defda6aa2dfa49675162fae4b6807f71",
        "stats.csv": "94a0ad724fea230132e26f1905bf172f2f38ab99ff499af5e84948dd84ce0ebf",
    }),
    "oracle": ("oracle", CLASSIC, 0, {
        "oracle.csv": "314ce83a61798b2ae924e93ec3489f6032695b5d76af769a773ef6ab1df7e37f",
    }),
    "verify-bounded": ("verify-bounds", BOUNDED, 0, {
        "verify.csv": "d1d37953de0e1fc48dc3fc7ffd25a9060830ce6633121b48e2fcd92f0dbaec77",
    }),
    "verify-decreasing": ("verify-bounds", DECREASING, 0, {
        "verify.csv": "639d561512cb6a024755a63bfa876d9605d01ac20fa3d58182b07d1af9c05603",
    }),
    "verify-isa": ("verify-bounds", ISA, 0, {
        "verify.csv": "1ecd5152b5b342504b0ec74aad2267d910e77ec87ce53a01a4151bf58c57450a",
    }),
    "verify-adaptive": ("verify-bounds", VERIFY_ADAPTIVE, 0, {
        "verify.csv": "934a051967406def835ee8b5f65dff8c2e5a4a94bd247f6bcf4640faf22b57c3",
    }),
    "verify-adaptive-mutation": ("verify-bounds", VERIFY_ADAPTIVE_MUTATION, 0, {
        "verify.csv": "c0292ace73af06834a6834a75d34054146a5c2686175ee81214ab7d6bf1f3b2d",
    }),
    "verify-isa-exceedance": ("verify-bounds", ISA_EXCEEDANCE, 2, {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digests(case, tmp_path):
    command, text, code, digests = CASES[case]
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == code
    files = out.iterdir() if out.exists() else ()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert got == digests
