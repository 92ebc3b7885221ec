"""Benchmark inputs: every scenario spec a run uses, made from its seed.

The program only ever sees the generated specs.  Each workload draws
from a fixed, finite pool of specs so that every output has a recorded
reference digest (``references.json``, written by ``record.py``):

* ``fig14_ensemble``: one Fig. 14 closed-workload sweep per run; the
  seed picks the model seed from a pool.
* ``geo_churn``: one churning, bursty random-geometric network per run;
  the seed picks the deployment (layout, failures, traffic) from a pool.
* ``serve_mixed``: a request sequence over a universe of short Fig. 14/15
  specs; the seed picks which specs are popular, which arrive new and
  when replication top-ups happen.

``scale="tiny"`` shrinks every spec for the benchmark's own self-tests.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

WORKLOADS = ("fig14_ensemble", "geo_churn", "serve_mixed")
SCALES = ("full", "tiny")

#: Seeds per batch pool; a run uses ``pool[seed % POOL_SIZE]``.
POOL_SIZE = 16

# Sizes per scale.  At full scale one run took 2-5 s (fig14) and 1.4-2.9 s
# (geo_churn), and a request about 22 ms warm / 95 ms on a miss with two
# clients, on a 2-core x86-64 host whose speed drifts by up to 2x.  The
# fig14 run is long next to the 0.7-1.5 s interpreter start-up, so most
# of a sample is measured.
_FIG14 = {"full": {"horizon": 30.0, "replications": 32},
          "tiny": {"horizon": 1.0, "replications": 4}}
_GEO = {"full": {"nodes": 80, "horizon": 15.0},
        "tiny": {"nodes": 12, "horizon": 2.0}}
# Serve universe: figures x model seeds x replication levels.
_SERVE_SEEDS = {"full": 80, "tiny": 6}
_SERVE_HORIZON = {"full": 1.0, "tiny": 0.5}
SERVE_REPLICATIONS = (2, 4, 6)  # base request, then two top-ups
SERVE_HOT = {"full": 12, "tiny": 4}
#: Requests per second of ``--seconds`` (full scale) and a fixed tiny count.
SERVE_REQUESTS_PER_S = 45
SERVE_TINY_REQUESTS = 40
SERVE_P_NEW = 0.07
SERVE_P_TOPUP = 0.02

_RUN_INFO = re.compile(r"\(workers=\d+, shards=\d+, [a-z-]+\)")


def normalize_output(text: str) -> str:
    """Mask the network run-info parenthetical, which names the knobs.

    ``network`` output prints ``(workers=W, shards=S, strategy)``; every
    other byte must match the serial reference.
    """
    return _RUN_INFO.sub("(workers=*, shards=*, *)", text)


def output_digest(text: str) -> str:
    return hashlib.sha256(normalize_output(text).encode()).hexdigest()


def spec_digest(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def serial_reference_spec(spec: dict) -> dict:
    """The serial interpreted spelling of ``spec``: same output bytes."""
    ref = json.loads(json.dumps(spec))
    ref["execution"] = {
        "workers": 1,
        "engine": "interpreted",
        "replications": spec["execution"].get("replications", 1),
    }
    return ref


@dataclass(frozen=True)
class SpecCase:
    """One generated scenario spec and its reference id."""

    ref_id: str
    spec: dict


def fig14_case(index: int, scale: str = "full") -> SpecCase:
    size = _FIG14[scale]
    model_seed = 2010 + index
    return SpecCase(
        f"fig14_ensemble/{scale}/{index}",
        {
            "version": 1,
            "name": "perfbench-fig14-ensemble",
            "model": "fig",
            "params": {"number": 14, "horizon": size["horizon"],
                       "seed": model_seed},
            "execution": {"replications": size["replications"],
                          "workers": 1, "engine": "vectorized"},
            "outputs": {"format": "text"},
        },
    )


def geo_case(index: int, scale: str = "full") -> SpecCase:
    size = _GEO[scale]
    # At full scale the failure rate kills more nodes than ChurnModel's
    # default cap of 32 failures, so every deployment has the same epoch
    # and segment counts and run cost does not swing with the seed.
    return SpecCase(
        f"geo_churn/{scale}/{index}",
        {
            "version": 2,
            "name": "perfbench-geo-churn",
            "model": "network",
            "params": {
                "topology": "geometric",
                "nodes": size["nodes"],
                "radius": 0.45,
                "threshold": 0.01,
                "sweep": False,
                "horizon": size["horizon"],
                "base_rate": 0.3,
                "failure_rate": 0.06 if scale == "full" else 0.2,
                "duty_spread": 0.3,
                "traffic": "bursty",
                "burst_on": 0.5,
                "burst_off": 1.5,
                "seed": 3000 + index,
            },
            "execution": {"workers": 1, "shards": 4},
            "outputs": {"format": "text"},
        },
    )


def batch_case(workload: str, seed: int, scale: str = "full") -> SpecCase:
    make = fig14_case if workload == "fig14_ensemble" else geo_case
    return make(seed % POOL_SIZE, scale)


def serve_case(fig: int, seed_index: int, reps: int,
               scale: str = "full") -> SpecCase:
    return SpecCase(
        f"serve_mixed/{scale}/fig{fig}/s{seed_index}/r{reps}",
        {
            "version": 1,
            "name": "perfbench-serve",
            "model": "fig",
            "params": {"number": fig, "horizon": _SERVE_HORIZON[scale],
                       "seed": 5000 + seed_index},
            "execution": {"replications": reps},
            "outputs": {"format": "text"},
        },
    )


def serve_universe(scale: str = "full") -> list[SpecCase]:
    return [
        serve_case(fig, s, reps, scale)
        for fig in (14, 15)
        for s in range(_SERVE_SEEDS[scale])
        for reps in SERVE_REPLICATIONS
    ]


def all_cases(scale: str = "full") -> list[SpecCase]:
    """Every spec any seed can produce: the reference set to record."""
    cases = [fig14_case(i, scale) for i in range(POOL_SIZE)]
    cases += [geo_case(i, scale) for i in range(POOL_SIZE)]
    return cases + serve_universe(scale)


def serve_request_count(seconds: int, scale: str = "full") -> int:
    if scale == "tiny":
        return SERVE_TINY_REQUESTS
    return SERVE_REQUESTS_PER_S * seconds


def serve_sequence(seed: int, n_requests: int,
                   scale: str = "full") -> list[SpecCase]:
    """The closed-loop request sequence for one ``serve_mixed`` run.

    Popularity is Zipf-skewed over a few hot specs, so most requests
    repeat a cached spec.  A fixed share ``SERVE_P_NEW`` of requests,
    at seeded positions, ask for a spec never seen before (a miss),
    alternating Figs. 14 and 15; a fixed share ``SERVE_P_TOPUP`` raise a
    hot spec's replication count to the next level (read the cached
    prefix, compute the tail).  Fixed shares keep the work of a run the
    same for every seed.
    """
    rng = random.Random(f"serve_mixed/{seed}")
    n_seeds, n_hot = _SERVE_SEEDS[scale], SERVE_HOT[scale]
    fresh = {fig: [(fig, s) for s in range(n_seeds)] for fig in (14, 15)}
    for pool in fresh.values():
        rng.shuffle(pool)
    # Hot specs: the first n_hot/2 of each figure's shuffled pool.
    hot = [fresh[fig].pop() for _ in range(n_hot // 2) for fig in (14, 15)]
    weights = [1.0 / (k + 1) ** 1.1 for k in range(len(hot))]
    positions = list(range(n_requests))
    rng.shuffle(positions)
    n_new = min(round(SERVE_P_NEW * n_requests), 2 * (n_seeds - n_hot // 2))
    n_topup = min(round(SERVE_P_TOPUP * n_requests),
                  len(hot) * (len(SERVE_REPLICATIONS) - 1))
    kind = dict.fromkeys(positions[:n_new], "new")
    kind.update(dict.fromkeys(positions[n_new:n_new + n_topup], "topup"))
    level = dict.fromkeys(hot, 0)
    out: list[SpecCase] = []
    n_fresh = 0
    for i in range(n_requests):
        if kind.get(i) == "new":
            fig, s = fresh[(14, 15)[n_fresh % 2]].pop()
            n_fresh += 1
            out.append(serve_case(fig, s, SERVE_REPLICATIONS[0], scale))
            continue
        if kind.get(i) == "topup":
            open_ = [b for b in hot if level[b] + 1 < len(SERVE_REPLICATIONS)]
            base = rng.choices(open_, [weights[hot.index(b)] for b in open_])[0]
            level[base] += 1
            reps = SERVE_REPLICATIONS[level[base]]
        else:
            base = rng.choices(hot, weights)[0]
            reps = SERVE_REPLICATIONS[0]
        out.append(serve_case(base[0], base[1], reps, scale))
    return out
