"""Fuzz over every count, rate and size flag of the CLI.

Each case feeds one flag of one subcommand (or the global ``--seed``)
every edge value (the boundaries 0 and -1, ``nan``, ``±inf``, huge and
subnormal floats, junk text) and then Hypothesis draws: in-domain
numbers and random text.  The property is the CLI's contract with a
shell: argparse rejects the value with exit 2 and an ``error: argument
<flag>:`` line, or the command returns one of its documented codes (0,
2, 3 or 4).  It never raises.

Everything runs in process through :func:`repro.cli.main`.  Flags that
size real or simulated resources (``--workers``, thread and worker
counts) are checked at parse and config level only: the case replaces
the first call past the config with one that raises :class:`_Built`,
so no case starts more than a handful of processes.  Flags that size a
workload that does run draw in-domain values of at most 8, and the
cluster arrival rate stays at or above 1 job/hour (the autoscaler
ticks every 300 simulated seconds while jobs are outstanding).
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cli
from repro.cli import main


class _Built(Exception):
    """Stops a command once it has built the config under test."""


#: Out-of-domain and extreme values every flag is fed, each of them.
_EDGES = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e309", "", "abc",
          "1,2", "0x10")
_TINY = ("5e-324", "1e-310")     # subnormal: positive, so in domain


def _ints(low: int, high: int = 10 ** 20):
    return st.one_of(st.integers(low, high).map(str), st.text(max_size=6))


def _floats(low: float, high: float = 1e308):
    return st.one_of(st.floats(
        low, high, allow_nan=False, allow_infinity=False,
    ).map(repr), st.text(max_size=6))


_SIZE = _ints(1, 8)          # workload sizes that actually run
_FAULTS = _ints(0, 8)        # fault counts of a run that happens
_COUNT = _ints(1)
_TALLY = _ints(0)
_SEED = _ints(-10 ** 20)
_REAL = _floats(0)           # rates, seconds and MiB; 0 is out for some

_SERVE = ["serve-sim", "--requests", "4", "--no-baseline"]
_CHAOS = ["chaos", "--requests", "4", "--no-determinism-check"]
_CLUSTER = {
    "cluster-sim": ["cluster-sim", "--policies", "fixed", "--jobs", "4"],
    "cluster-chaos": ["cluster-chaos", "--jobs", "4",
                      "--no-determinism-check"],
}
_OBSERVE = {
    leaf: ["observe", leaf, *extra, "--requests", "4"]
    for leaf, extra in (("export-trace", ()), ("export-metrics", ()),
                        ("explain", ("1",)))
}
_CAMPAIGN = {
    "run": ["campaign", "run", "--dir", "{tmp}/c", "--targets", "2"],
    "differential": ["campaign", "differential", "--dir", "{tmp}/c",
                     "--targets", "2"],
}

#: Where each resource-sized command stops once its config is built.
_GATEWAY = "repro.serving.ServingGateway.__init__"
_CAMPAIGN_STOP = {
    "run": "repro.campaign.run_campaign",
    "differential": "repro.campaign.kill_resume_differential",
}


def _case(argv, flag, values, stop=None, tiny=True):
    """One flag of one command; ``tiny`` feeds it the subnormals too."""
    name = " ".join(a for a in argv[:2] if not a.startswith("-"))
    edges = _EDGES + (_TINY if tiny else ())
    return pytest.param(argv, flag, values, stop, edges,
                        id=f"{name} {flag}")


_CASES = [
    # run, sweep, estimate
    _case(["run"], "--threads", _COUNT, "repro.cli.Af3Pipeline"),
    _case(["run"], "--workers", _COUNT, "repro.cli.Af3Pipeline"),
    _case(["run", "--attention", "tiled"], "--memory-budget-mb", _REAL),
    _case(["sweep"], "--threads", _COUNT,
          "repro.core.runner.BenchmarkRunner.run_sweep"),
    _case(["estimate"], "--threads", _COUNT,
          "repro.core.estimator.estimate"),
    _case(["estimate", "--attention", "tiled"], "--attention-block",
          _COUNT),
    # serve-sim
    _case(_SERVE, "--requests", _SIZE),
    _case(_SERVE, "--rate", _REAL),
    _case(_SERVE + ["--scenario", "ppi-screen"], "--chains",
          _ints(2, 8)),
    _case(_SERVE + ["--store-dir", "{tmp}/fs"], "--store-budget-mb", _REAL),
    # msa-precompute
    _case(["msa-precompute", "--store-dir", "{tmp}/fs"], "--chains",
          _ints(2, 8), "repro.store.precompute_msas"),
    _case(["msa-precompute", "--store-dir", "{tmp}/fs"], "--workers",
          _COUNT, "repro.store.precompute_msas"),
    _case(["msa-precompute", "--store-dir", "{tmp}/fs"],
          "--store-budget-mb", _REAL, "repro.store.precompute_msas"),
    # chaos
    _case(_CHAOS, "--requests", _SIZE),
    _case(_CHAOS, "--rate", _REAL),
    _case(_CHAOS, "--restart", _REAL),
    _case(_CHAOS, "--breaker-threshold", _TALLY),
    _case(_CHAOS, "--breaker-cooldown", _REAL),
    _case(_CHAOS, "--seeds", _SEED),
    *[_case(_CHAOS, flag, _FAULTS)
      for flag in ("--oom-spikes", "--db-stalls", "--db-corruptions")],
    # the gateway's worker, timeout and retry flags, everywhere
    *[_case(argv, flag, _COUNT, stop)
      for argv, stop in ((_SERVE, _GATEWAY),
                         (_CHAOS, "repro.serving.chaos.build_campaign"),
                         *((argv, _GATEWAY) for argv in _OBSERVE.values()))
      for flag in ("--gpu-workers", "--msa-workers")],
    *[_case(argv, flag, values)
      for argv in (_SERVE, _CHAOS, *_OBSERVE.values())
      for flag, values in (("--timeout", _REAL), ("--retries", _TALLY))],
    # batching
    *[_case(argv, flag, values)
      for argv in (_SERVE, *_OBSERVE.values())
      for flag, values in (("--max-batch", _COUNT), ("--max-wait", _REAL),
                           ("--queue-limit", _COUNT),
                           ("--backoff", _REAL))],
    # observe stream flags
    *[_case(argv, flag, values)
      for argv in _OBSERVE.values()
      for flag, values in (("--requests", _SIZE), ("--rate", _REAL))],
    _case(_OBSERVE["export-trace"], "--indent", _TALLY),
    # the fault counts the serving and cluster campaigns share
    *[_case(argv, flag, _FAULTS)
      for argv in (_CHAOS, *_CLUSTER.values())
      for flag in ("--crashes", "--preemptions", "--preemption-notices",
                   "--slow-nodes")],
    # cluster
    *[_case(argv, flag, values, tiny=flag != "--rate")
      for argv in _CLUSTER.values()
      for flag, values in (("--jobs", _SIZE), ("--chains", _ints(2, 8)),
                           ("--rate", _floats(1)),
                           ("--max-attempts", _COUNT),
                           ("--store-corruptions", _FAULTS))],
    _case(_CLUSTER["cluster-chaos"], "--seeds", _SEED),
    # campaign: every flag stops at the call that takes its config
    *[_case(_CAMPAIGN[leaf], flag, values, _CAMPAIGN_STOP[leaf])
      for leaf in _CAMPAIGN
      for flag, values in (("--targets", _SIZE), ("--threads", _COUNT),
                           ("--max-tokens", _TALLY), ("--workers", _COUNT),
                           ("--kill-after", _COUNT),
                           ("--store-budget-mb", _REAL))],
    _case(["campaign", "resume", "--dir", "{tmp}/c"], "--workers", _COUNT,
          "repro.campaign.run_campaign"),
    # buckets, scale, export-scan-trace
    _case(["buckets", "fit"], "--requests", _SIZE),
    _case(["buckets", "fit", "--requests", "8"], "--max-buckets", _COUNT),
    _case(["buckets", "fit", "--requests", "8"], "--min-width", _COUNT),
    _case(["scale", "--measured-only"], "--workers", _COUNT,
          "repro.experiments.measured_scaling.render"),
    *[_case(["observe", "export-scan-trace"], flag, values,
            "repro.cli.MsaEngine")
      for flag, values in (("--workers", _COUNT),
                           ("--num-background", _TALLY),
                           ("--indent", _TALLY))],
    # the global --seed, in front of commands that use it
    *[_case(argv, "--seed", _SEED, stop)
      for argv, stop in ((_SERVE, None), (_CHAOS, None),
                         (_CLUSTER["cluster-sim"], None),
                         (["buckets", "fit", "--requests", "8"], None),
                         (["run"], "repro.cli.Af3Pipeline"))],
]


def _stop(*args, **kwargs):
    raise _Built


@pytest.fixture(scope="module")
def parser():
    return repro.cli.build_parser()


@pytest.fixture
def check(monkeypatch, tmp_path, parser):
    """``check(argv, flag, value, stop)`` runs one case and asserts the
    property.  One parser serves every call (argparse keeps no state
    between parses), which keeps a rejected value under a millisecond."""
    monkeypatch.setattr(repro.cli, "build_parser", lambda: parser)

    def run(argv, flag, value, stop):
        if stop is not None:
            monkeypatch.setattr(stop, _stop)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        argv = ([f"--seed={value}", *argv] if flag == "--seed"
                else [*argv, f"{flag}={value}"])
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except _Built:
            return
        except SystemExit as exc:
            assert exc.code == 2, (argv, err.getvalue())
            assert f"error: argument {flag}:" in err.getvalue(), argv
            return
        assert code in (0, 2, 3, 4), (argv, err.getvalue())

    return run


@pytest.mark.parametrize("argv,flag,values,stop,edges", _CASES)
def test_edge_value_is_a_usage_error_or_a_documented_exit(
    check, argv, flag, values, stop, edges
):
    for value in edges:
        check(argv, flag, value, stop)


@pytest.mark.parametrize("argv,flag,values,stop,edges", _CASES)
@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_value_is_a_usage_error_or_a_documented_exit(
    check, argv, flag, values, stop, edges, data
):
    check(argv, flag, data.draw(values, label=flag), stop)
