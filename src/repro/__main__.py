"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin shell over the :mod:`repro.api` facade — every command is
a few facade calls plus printing.  Ten commands are provided:

* ``info`` — package version, registered schemes, dataset profiles;
* ``advise`` — run the scheme advisor on a sample mini-batch drawn from a
  named dataset profile (Section 5.1's "test TOC on a sample" advice);
* ``experiment`` — run one of the paper's tables/figures by id (delegates to
  :mod:`repro.bench.experiments`, e.g. ``python -m repro experiment fig5``);
* ``encode`` — shard a dataset profile to disk (``Dataset.create``);
* ``stats`` — summarise a shard directory: sizes, compression ratio, and
  the per-shard scheme mix (``Dataset.stats``);
* ``compact`` — re-advise every shard and re-encode the drifted ones
  (``Dataset.compact``), the maintenance pass for long-lived datasets;
* ``scan`` — run a predicate / aggregate query over a shard directory
  (``Dataset.scan``), pushed down onto the compressed shards where the
  scheme allows it;
* ``fsck`` — sweep a shard directory for leftovers of interrupted rewrites
  (``Dataset.fsck``): staged generations and temporaries nothing references;
* ``train-ooc`` — train out-of-core (``Estimator.fit``): over an existing
  shard directory when ``--shard-dir`` already holds a manifest, otherwise
  sharding a generated dataset first; ``--checkpoint-dir`` publishes the
  model to a version registry (``Estimator.save``);
* ``predict`` — load a checkpointed model, look rows up in the shard store,
  and print predictions next to the stored labels (``open_service``);
* ``serve`` — drive the micro-batched prediction service with a synthetic
  closed-loop client swarm and report throughput / batching / cache stats;
  ``--workers N`` serves through the multi-process cluster tier instead
  (``--backlog``, ``--deadline-ms``, ``--admission`` control backpressure
  and shedding; SIGINT/SIGTERM drain in-flight work and exit 0);
* ``obs`` — the observability group: ``obs dump`` runs a small encode +
  train + scan exercise and dumps the recorded spans (native JSON or Chrome
  ``chrome://tracing`` format), ``obs metrics`` prints the process metrics
  snapshot the same exercise produces.

Performance regressions are judged by ``python3 bench/run.py --compare``,
not by a command here.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.api import (
    DATASET_PROFILES,
    Dataset,
    Estimator,
    __version__,
    available_schemes,
    open_service,
    recommend_scheme,
)
from repro.core.calibration import DEFAULT_WORKLOAD, WORKLOADS


def _profile_or_none(name: str):
    profile = DATASET_PROFILES.get(name)
    if profile is None:
        print(f"unknown dataset profile {name!r}; known: {sorted(DATASET_PROFILES)}")
    return profile


def _scheme_mix(scheme_counts: dict) -> str:
    """``{"TOC": 3, "DEN": 1}`` -> ``"DENx1, TOCx3"``."""
    return ", ".join(f"{name}x{count}" for name, count in sorted(scheme_counts.items()))


def _print_stats(stats) -> None:
    """Shared ``encode``/``stats`` report: one ``DatasetStats`` as text."""
    print(f"shards:    {stats.n_shards} ({_scheme_mix(stats.scheme_counts)})")
    print(f"examples:  {stats.n_examples} rows x {stats.n_cols} cols")
    print(
        f"payload:   {stats.payload_bytes / 1e6:.2f} MB "
        f"({stats.physical_bytes / 1e6:.2f} MB paged, "
        f"{stats.compression_ratio:.1f}x vs dense)"
    )
    requested = stats.requested_scheme
    if isinstance(requested, list):
        requested = "per-batch list"
    print(f"scheme:    {stats.scheme} (requested: {requested})")


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.bench import experiments

    print(f"repro {__version__} — tuple-oriented compression for mini-batch SGD")
    print(f"schemes:  {', '.join(available_schemes(include_ablations=True))}")
    print("datasets: " + ", ".join(sorted(DATASET_PROFILES)))
    print("experiments: " + ", ".join(sorted(experiments.EXPERIMENTS)))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    profile = _profile_or_none(args.dataset)
    if profile is None:
        return 2
    sample = profile.matrix(args.rows, seed=args.seed)
    recommendation = recommend_scheme(sample, workload=args.workload)
    print(f"sample: {args.rows} rows x {sample.shape[1]} columns from {args.dataset!r}")
    print(f"workload: {recommendation.workload!r} (measured-cost ranking)")
    print(f"{'scheme':<10} {'ratio':>8} {'direct ops':>11} {'cost':>12}")
    for report in recommendation.reports:
        print(
            f"{report.name:<10} {report.compression_ratio:>8.1f} "
            f"{str(report.supports_direct_ops):>11} {report.measured_cost:>12.3e}"
        )
    print(f"\nrecommended scheme: {recommendation.best.name}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench import experiments

    cli_args = [args.experiment_id]
    if args.quick:
        cli_args.append("--quick")
    return experiments.main(cli_args)


def _cmd_encode(args: argparse.Namespace) -> int:
    profile = _profile_or_none(args.dataset)
    if profile is None:
        return 2
    features, labels = profile.classification(args.rows, seed=args.seed)
    try:
        dataset = Dataset.create(
            args.shard_dir,
            features,
            labels,
            scheme=args.scheme,
            batch_size=args.batch_size,
            seed=args.seed,
            workers=args.workers,
            workload=args.workload,
        )
    except (KeyError, ValueError) as exc:
        print(f"encode failed: {exc}")
        return 2
    stats = dataset.stats()
    print(f"encoded {args.dataset!r} into {dataset.path} in {stats.encode_seconds:.3f}s")
    _print_stats(stats)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if not Dataset.exists(args.shard_dir):
        print(f"no shard manifest under {args.shard_dir}")
        return 2
    dataset = Dataset.open(args.shard_dir)
    print(f"dataset at {dataset.path}")
    _print_stats(dataset.stats())
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    if not Dataset.exists(args.shard_dir):
        print(f"no shard manifest under {args.shard_dir}")
        return 2
    dataset = Dataset.open(args.shard_dir)
    try:
        report = dataset.compact(
            readvise=not args.no_readvise,
            sample_rows=args.sample_rows,
            workload=args.workload,
            max_shards=args.max_shards,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"compact failed: {exc}")
        return 2
    if not report.readvised:
        print(f"manifest rewritten (format v2); {report.examined} shards untouched")
        return 0
    for change in report.changes:
        print(
            f"shard {change.batch_id:05d}: {change.scheme_before} -> "
            f"{change.scheme_after} ({change.nbytes_before} -> {change.nbytes_after} bytes)"
        )
    print(
        f"compacted {dataset.path} in {report.seconds:.3f}s: "
        f"{report.n_reencoded} of {report.examined} shards re-encoded"
        + (f" ({report.deferred} deferred by --max-shards)" if report.deferred else "")
        + (
            f", payload {report.payload_bytes_before / 1e6:.2f} -> "
            f"{report.payload_bytes_after / 1e6:.2f} MB"
            if report.changed
            else " (already optimal — no-op)"
        )
    )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if not Dataset.exists(args.shard_dir):
        print(f"no shard manifest under {args.shard_dir}")
        return 2
    dataset = Dataset.open(args.shard_dir)
    columns = None
    if args.columns is not None:
        try:
            columns = [
                int(part.strip().lstrip("cC"))
                for part in args.columns.split(",")
                if part.strip()
            ]
        except ValueError:
            print(f"--columns must be comma-separated column indexes, got {args.columns!r}")
            return 2
    try:
        result = dataset.scan(
            columns=columns,
            where=args.where,
            agg=args.agg,
            limit=args.limit,
            pushdown=not args.no_pushdown,
        )
    except (ValueError, IndexError) as exc:
        print(f"scan failed: {exc}")
        return 2
    if result.is_aggregate:
        for key, value in result.aggregates.items():
            rendered = "null" if value is None else f"{value:g}"
            print(f"{key:<12} {rendered}")
    else:
        shown = result.rows if args.max_print is None else result.rows[: args.max_print]
        header = (
            [f"c{c}" for c in columns]
            if columns is not None
            else [f"c{c}" for c in range(result.rows.shape[1])]
        )
        print(f"{'row':>8} " + " ".join(f"{name:>10}" for name in header))
        for row_id, row in zip(result.row_ids, shown):
            print(f"{row_id:>8} " + " ".join(f"{value:>10.4g}" for value in row))
        if shown.shape[0] < result.rows.shape[0]:
            print(f"... ({result.rows.shape[0] - shown.shape[0]} more rows not printed)")
    print(
        f"\nscanned {result.n_rows_scanned} rows in {result.shards_scanned} shards "
        f"({_scheme_mix(result.schemes)}): {result.n_rows_matched} matched "
        f"({result.selectivity:.1%}); push-down on {result.pushdown_shards} shards, "
        f"dense fallback on {result.fallback_shards}"
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    if not Dataset.exists(args.shard_dir):
        print(f"no shard manifest under {args.shard_dir}")
        return 2
    dataset = Dataset.open(args.shard_dir)
    report = dataset.fsck(remove=not args.dry_run)
    for name in report.orphans:
        action = "would remove" if args.dry_run else "removed"
        print(f"{action}: {name}")
    for name in report.missing:
        print(f"MISSING (referenced by the manifest, not on disk): {name}")
    for name in report.wrong_size:
        print(f"WRONG SIZE (not the manifest's nbytes): {name}")
    if report.clean:
        print(f"{dataset.path}: clean ({report.examined} unreferenced entries examined)")
    else:
        print(
            f"{dataset.path}: {len(report.orphans)} orphans "
            f"({report.bytes_reclaimable} bytes"
            + (" reclaimable), dry run — nothing deleted"
               if args.dry_run else " reclaimed)")
            + (f", {len(report.missing)} referenced files MISSING" if report.missing else "")
            + (f", {len(report.wrong_size)} of the WRONG SIZE" if report.wrong_size else "")
        )
    # Missing or damaged referenced files mean real data loss — nonzero exit for scripts.
    return 1 if report.missing or report.wrong_size else 0


def _cmd_train_ooc(args: argparse.Namespace) -> int:
    try:
        estimator = Estimator(
            args.model,
            scheme=args.scheme,
            batch_size=args.batch_size,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            seed=args.seed,
            budget_bytes=int(args.budget_mb * 1e6) if args.budget_mb is not None else None,
            budget_ratio=args.budget_ratio,
            workers=args.workers,
            workload=args.workload,
        )
    except (KeyError, ValueError) as exc:
        print(f"invalid train-ooc configuration: {exc}")
        return 2

    reuse = args.shard_dir is not None and Dataset.exists(args.shard_dir)
    try:
        if reuse:
            dataset = Dataset.open(args.shard_dir)
            print(
                f"training over the existing {len(dataset)} shards at {dataset.path} "
                f"(scheme {dataset.scheme}; --dataset/--rows/--scheme ignored)"
            )
            report = estimator.fit(dataset)
        else:
            profile = _profile_or_none(args.dataset)
            if profile is None:
                return 2
            features, labels = profile.classification(args.rows, seed=args.seed)
            print(
                f"sharding {features.shape[0]} rows x {features.shape[1]} cols of "
                f"{args.dataset!r} as {args.scheme} (batch {args.batch_size})"
            )
            if args.scheme == "auto":
                print("scheme 'auto': the advisor samples every batch and picks per shard")
            if args.shard_dir is not None:
                report = estimator.fit(features, labels, shard_dir=args.shard_dir)
            else:
                if args.checkpoint_dir is not None:
                    print("--checkpoint-dir needs --shard-dir: the checkpoint records the shard")
                    print("directory so `serve` and `predict` can find the features again")
                    return 2
                with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
                    report = estimator.fit(features, labels, shard_dir=tmp)
    except (FileNotFoundError, ValueError) as exc:
        print(f"train-ooc failed: {exc}")
        return 2

    stats = report.dataset.stats()
    ooc = report.ooc
    print(
        f"shards: {stats.n_shards} batches ({_scheme_mix(stats.scheme_counts)}), "
        f"{ooc.total_payload_bytes / 1e6:.2f} MB payload "
        f"({ooc.physical_bytes / 1e6:.2f} MB paged), "
        f"encoded in {stats.encode_seconds:.3f}s"
    )
    print(
        f"buffer pool: {ooc.budget_bytes / 1e6:.2f} MB budget — "
        f"dataset {'fits' if ooc.fits_in_memory else 'does NOT fit'} in memory"
    )
    print(f"\n{'epoch':>5} {'loss':>10} {'wall s':>8} {'sim IO s':>9}")
    for i, (loss, wall, io) in enumerate(
        zip(report.history.epoch_losses, report.history.epoch_times, ooc.epoch_io_seconds),
        start=1,
    ):
        print(f"{i:>5} {loss:>10.4f} {wall:>8.3f} {io:>9.5f}")
    pool = ooc.pool_stats
    print(
        f"\npool stats: {pool.hits} hits / {pool.misses} misses "
        f"(hit rate {pool.hit_rate:.0%}), {pool.evictions} evictions, "
        f"{pool.bytes_read_from_disk / 1e6:.2f} MB read from disk"
    )
    if args.checkpoint_dir is not None:
        version, path = estimator.save(args.checkpoint_dir)
        print(f"checkpoint: published v{version:05d} at {path}")
    return 0


def _load_service(args):
    """Shared ``serve``/``predict`` setup: registry -> checkpoint -> service.

    Returns ``(service, checkpoint)`` or an int exit code on a clean failure.
    """
    try:
        service, checkpoint = open_service(
            args.checkpoint_dir,
            args.version if args.version == "latest" else int(args.version),
            shard_dir=args.shards,
            max_batch_size=args.max_batch,
            max_wait_seconds=args.max_wait_ms / 1e3,
        )
    except FileNotFoundError as exc:
        print(f"cannot load checkpoint: {exc}")
        print("train one first: python -m repro train-ooc --shard-dir shards/ "
              "--checkpoint-dir checkpoints/")
        return 2
    except ValueError as exc:
        print(f"invalid serving configuration: {exc}")
        return 2
    if service.store is None:
        service.close()
        print("checkpoint records no shard directory; pass --shards pointing at one")
        return 2
    return service, checkpoint


def _cmd_predict(args: argparse.Namespace) -> int:
    loaded = _load_service(args)
    if isinstance(loaded, int):
        return loaded
    service, checkpoint = loaded
    with service:
        store = service.store
        try:
            ids = [int(part) for part in args.ids.split(",") if part.strip() != ""]
        except ValueError:
            print(f"--ids must be comma-separated integers, got {args.ids!r}")
            return 2
        try:
            predictions = service.predict_ids(ids)
        except IndexError as exc:
            print(f"predict failed: {exc}")
            return 2
        labels = store.get_labels(ids)
        print(
            f"model v{checkpoint.version:05d} ({checkpoint.model_name}, "
            f"scheme {checkpoint.scheme_name}) over {store.n_rows} stored rows"
        )
        print(f"{'row':>6} {'prediction':>11} {'label':>6}")
        for row_id, prediction, label in zip(ids, predictions, labels):
            print(f"{row_id:>6} {prediction:>11.0f} {label:>6.0f}")
        correct = float((predictions == labels).mean()) if ids else 0.0
        print(f"\nagreement with stored labels: {correct:.0%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    if args.workers > 1:
        return _cmd_serve_cluster(args)

    loaded = _load_service(args)
    if isinstance(loaded, int):
        return loaded
    service, checkpoint = loaded
    with service:
        store = service.store
        n_rows = store.n_rows
        rng = np.random.default_rng(args.seed)
        # 80/20 closed-loop workload: most requests hammer a small hot set,
        # which is what gives the cache something to absorb.
        hot = rng.choice(n_rows, size=max(1, n_rows // 5), replace=False)
        workload = np.where(
            rng.random(args.requests) < 0.8,
            rng.choice(hot, size=args.requests),
            rng.integers(0, n_rows, size=args.requests),
        )
        print(
            f"serving model v{checkpoint.version:05d} ({checkpoint.model_name}, "
            f"scheme {checkpoint.scheme_name}): {args.requests} requests from "
            f"{args.clients} clients over {n_rows} rows "
            f"(batch<= {args.max_batch}, wait {args.max_wait_ms}ms)"
        )
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.clients) as clients:
            list(clients.map(service.predict_id, workload))
        wall = time.perf_counter() - start

        # Every client has its answer, so the counters have come to rest.
        metrics = service.metrics()
        stats, queued = service.stats.snapshot(), metrics["histograms"]["serve.request.seconds"]
        batcher, rows = service.batcher_stats, store.stats
        print(f"\nthroughput: {args.requests / wall:,.0f} requests/s ({wall:.3f}s wall)")
        print(
            f"latency:    {queued['mean'] * 1e6:,.0f} us mean over the {queued['count']} "
            f"queued requests (score-array hits are counted, not timed)"
        )
        print(
            f"batching:   {batcher.batches} model calls, mean batch "
            f"{batcher.mean_batch_size:.1f}, largest {batcher.largest_batch}"
        )
        print(f"pred cache: {stats.cache_hit_rate:.0%} hit rate ({stats.cache_hits} hits)")
        print(
            f"store:      {rows.row_hit_rate:.0%} row hit rate "
            f"({metrics['counters']['serve.store.shards_scored']} shards scored whole, "
            f"{rows.shard_decodes} row-sliced)"
        )
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``serve --workers N``: drive the multi-process tier under load.

    SIGINT/SIGTERM trigger a graceful drain: clients stop issuing new
    requests, workers finish everything in flight, and the command exits 0.
    """
    import signal
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.api import ClusterError, ClusterService

    try:
        cluster = ClusterService(
            args.checkpoint_dir,
            args.version if args.version == "latest" else int(args.version),
            shard_dir=args.shards,
            workers=args.workers,
            backlog=args.backlog,
            admission=args.admission,
            default_deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
            max_batch_size=args.max_batch,
        )
    except FileNotFoundError as exc:
        print(f"cannot load checkpoint: {exc}")
        print("train one first: python -m repro train-ooc --shard-dir shards/ "
              "--checkpoint-dir checkpoints/")
        return 2
    except ValueError as exc:
        print(f"invalid serving configuration: {exc}")
        return 2
    except ClusterError as exc:  # a worker's ready frame carried the reason
        print(f"cannot start the cluster: {exc}")
        return 2

    checkpoint = cluster.checkpoint
    stop = threading.Event()

    def _drain(signum, _frame):
        print(f"\nreceived {signal.Signals(signum).name}: draining in-flight work ...")
        stop.set()

    previous = {
        sig: signal.signal(sig, _drain) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    shed = 0
    done = 0
    issued = 0
    count_lock = threading.Lock()
    try:
        n_rows = cluster.ping()[0]["n_rows"]
        rng = np.random.default_rng(args.seed)
        hot = rng.choice(n_rows, size=max(1, n_rows // 5), replace=False)
        workload = np.where(
            rng.random(args.requests) < 0.8,
            rng.choice(hot, size=args.requests),
            rng.integers(0, n_rows, size=args.requests),
        )
        deadline_text = f"{args.deadline_ms:.0f}ms" if args.deadline_ms else "none"
        print(
            f"serving model v{checkpoint.version:05d} ({checkpoint.model_name}) with "
            f"{args.workers} workers (backlog {args.backlog}/worker, admission "
            f"{args.admission!r}, deadline {deadline_text}): {args.requests} requests "
            f"from {args.clients} clients over {n_rows} rows"
        )

        def client(row_id: int) -> None:
            nonlocal shed, done
            if stop.is_set():
                return
            try:
                cluster.predict(int(row_id))
            except ClusterError:
                with count_lock:
                    shed += 1
            else:
                with count_lock:
                    done += 1

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.clients) as clients:
            for row_id in workload:
                if stop.is_set():
                    break
                clients.submit(client, row_id)
                issued += 1
        wall = time.perf_counter() - start
        metrics = cluster.metrics()
        cluster.close(drain=True)

        skipped = issued - done - shed
        print(f"\nthroughput: {done / wall:,.0f} answered requests/s ({wall:.3f}s wall)")
        print(
            f"requests:   {issued} issued, {done} answered, {shed} shed/failed"
            + (f", {skipped} skipped at drain" if skipped else "")
        )
        depth_keys = sorted(
            key for key in metrics["gauges"] if key.startswith("cluster.worker.queue_depth")
        )
        for key in depth_keys:
            print(f"{key}: {metrics['gauges'][key]:.0f}")
        if stop.is_set():
            print("drained cleanly after signal")
        return 0
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        cluster.close(drain=True)


def _obs_exercise(rows: int) -> None:
    """Populate spans/metrics with a real encode + train + scan + serve workload.

    One encode worker throughout, so every span lands in this process's
    tracer (process-pool workers would record into their own).  The serving
    leg awaits 16 requests through the asyncio surface, which submits them to
    the service's micro-batcher: they show up in the ``serve.*`` series.
    """
    import asyncio

    import numpy as np

    from repro.api import AsyncPredictionService, Estimator

    with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
        rng = np.random.default_rng(0)
        features = rng.normal(size=(rows, 8))
        features[rng.random(features.shape) < 0.6] = 0.0
        labels = (features[:, 0] > 0).astype(np.float64)
        dataset = Dataset.create(
            f"{tmp}/shards",
            features,
            labels,
            scheme="TOC",
            batch_size=max(rows // 4, 1),
            workers=1,
            seed=0,
        )
        estimator = Estimator("logreg", scheme="TOC", epochs=2, workers=1)
        estimator.fit(dataset)
        dataset.scan(where="c0 >= 0", agg="count")
        estimator.save(f"{tmp}/registry")
        service, _ = open_service(f"{tmp}/registry")

        async def serve_leg():
            async with AsyncPredictionService(service) as async_service:
                await async_service.predict_many(
                    [int(i) for i in rng.integers(0, rows, size=16)]
                )

        asyncio.run(serve_leg())


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    from repro.obs import default_tracer

    _obs_exercise(args.rows)
    tracer = default_tracer()
    if args.format == "chrome":
        text = tracer.dump_chrome(indent=2)
    else:
        text = tracer.dump(indent=2)
    if args.output is not None:
        from pathlib import Path

        from repro.storage.mmapio import publish_file

        publish_file(Path(args.output), text.encode())
        print(f"wrote {len(tracer)} spans ({args.format}) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs import metrics_snapshot

    _obs_exercise(args.rows)
    print(json.dumps(metrics_snapshot(args.prefix), indent=2, sort_keys=True))
    return 0


def _add_encode_args(sub: argparse.ArgumentParser, default_dataset: str) -> None:
    """Flags shared by ``encode`` and ``train-ooc``'s sharding half."""
    sub.add_argument("--dataset", default=default_dataset, help="dataset profile name")
    sub.add_argument("--batch-size", type=int, default=250, help="mini-batch rows")
    sub.add_argument(
        "--scheme",
        default=None,
        help='compression scheme for the shards, or "auto" to let the advisor '
        "pick per shard (the manifest records the choice for every shard)",
    )
    sub.add_argument("--seed", type=int, default=0, help="data / shuffle / init seed")
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        help="encode workers (default: one per usable CPU; 1 encodes in this process)",
    )
    sub.add_argument(
        "--workload",
        choices=WORKLOADS,
        default=DEFAULT_WORKLOAD,
        help='rank "auto" scheme candidates by measured kernel cost for this '
        "workload (calibration is persisted next to the dataset; default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="show version, schemes, datasets, experiments")
    info.set_defaults(func=_cmd_info)

    advise = subparsers.add_parser("advise", help="recommend a scheme for a dataset profile")
    advise.add_argument("--dataset", default="census", help="dataset profile name")
    advise.add_argument("--rows", type=int, default=250, help="sample mini-batch rows")
    advise.add_argument("--seed", type=int, default=0, help="sample seed")
    advise.add_argument(
        "--workload",
        choices=WORKLOADS,
        default=DEFAULT_WORKLOAD,
        help="rank by measured kernel cost for this workload (default: %(default)s)",
    )
    advise.set_defaults(func=_cmd_advise)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    # Choices resolve lazily in _cmd_experiment; accept any id here so the
    # parser itself stays a thin facade shell.
    experiment.add_argument("experiment_id")
    experiment.add_argument("--quick", action="store_true", help="reduced row counts / epochs")
    experiment.set_defaults(func=_cmd_experiment)

    encode = subparsers.add_parser(
        "encode", help="shard a dataset profile into a compressed dataset on disk"
    )
    _add_encode_args(encode, default_dataset="census")
    encode.set_defaults(scheme="auto")
    encode.add_argument("--rows", type=int, default=4000, help="dataset rows to generate")
    encode.add_argument("--shard-dir", required=True, help="directory to encode into")
    encode.set_defaults(func=_cmd_encode)

    stats = subparsers.add_parser(
        "stats", help="summarise a shard directory (sizes, ratio, scheme mix)"
    )
    stats.add_argument("--shard-dir", required=True, help="shard directory to inspect")
    stats.set_defaults(func=_cmd_stats)

    compact = subparsers.add_parser(
        "compact", help="re-advise shards and re-encode the ones whose scheme drifted"
    )
    compact.add_argument("--shard-dir", required=True, help="shard directory to compact")
    compact.add_argument(
        "--no-readvise",
        action="store_true",
        help="skip the advisor; only rewrite the manifest (v1 -> v2 upgrade)",
    )
    compact.add_argument(
        "--sample-rows", type=int, default=100, help="rows the advisor samples per shard"
    )
    compact.add_argument(
        "--workload",
        choices=WORKLOADS,
        default=DEFAULT_WORKLOAD,
        help="re-advise by measured kernel cost for this workload "
        "(calibration is persisted next to the dataset; default: %(default)s)",
    )
    compact.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="re-encode at most this many shards per pass (rest deferred)",
    )
    compact.add_argument(
        "--workers",
        type=int,
        default=None,
        help="re-encode workers (default: one per usable CPU; 1 re-encodes in this process)",
    )
    compact.set_defaults(func=_cmd_compact)

    scan = subparsers.add_parser(
        "scan", help="query a shard directory with predicate push-down"
    )
    scan.add_argument("--shard-dir", required=True, help="shard directory to query")
    scan.add_argument(
        "--where",
        default=None,
        help="predicate, e.g. 'c0 >= 0.5 and (c2 == 1 or not c3 < 2)' (default: all rows)",
    )
    scan.add_argument(
        "--columns", default=None, help="comma-separated columns to project, e.g. 'c0,c3' or '0,3'"
    )
    scan.add_argument(
        "--agg",
        default=None,
        help="aggregates instead of rows: 'count' or '<op>:<col>', comma-joined "
        "(ops: count, sum, min, max, mean), e.g. 'count,mean:c2'",
    )
    scan.add_argument("--limit", type=int, default=None, help="stop after this many matches")
    scan.add_argument(
        "--no-pushdown",
        action="store_true",
        help="force the dense fallback on every shard (for verification / timing)",
    )
    scan.add_argument(
        "--max-print", type=int, default=20, help="cap on printed rows (matches beyond still count)"
    )
    scan.set_defaults(func=_cmd_scan)

    fsck = subparsers.add_parser(
        "fsck", help="sweep a shard directory for orphaned temporaries and stale generations"
    )
    fsck.add_argument("--shard-dir", required=True, help="shard directory to check")
    fsck.add_argument(
        "--dry-run", action="store_true", help="report orphans without deleting them"
    )
    fsck.set_defaults(func=_cmd_fsck)

    train_ooc = subparsers.add_parser(
        "train-ooc",
        help="shard a dataset to disk and train a model out-of-core",
    )
    _add_encode_args(train_ooc, default_dataset="kdd99")
    train_ooc.set_defaults(scheme="TOC")
    train_ooc.add_argument("--rows", type=int, default=4000, help="dataset rows to generate")
    train_ooc.add_argument("--epochs", type=int, default=3, help="training epochs")
    train_ooc.add_argument("--learning-rate", type=float, default=0.3, help="MGD step size")
    train_ooc.add_argument("--model", choices=("logreg", "svm"), default="logreg")
    train_ooc.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="buffer pool budget in MB (overrides --budget-ratio)",
    )
    train_ooc.add_argument(
        "--budget-ratio",
        type=float,
        default=0.5,
        help="pool budget as a fraction of the shard payload (default 0.5: does not fit)",
    )
    train_ooc.add_argument(
        "--shard-dir",
        default=None,
        help="persist shards here, or train over this directory when it already "
        "holds a manifest (default: temporary directory)",
    )
    train_ooc.add_argument(
        "--checkpoint-dir",
        default=None,
        help="publish the trained model to this registry (needs --shard-dir)",
    )
    train_ooc.set_defaults(func=_cmd_train_ooc)

    def add_serving_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--checkpoint-dir", default="checkpoints", help="model registry root directory"
        )
        sub.add_argument(
            "--version", default="latest", help='checkpoint version number or "latest"'
        )
        sub.add_argument(
            "--shards",
            default=None,
            help="shard directory (default: the one recorded in the checkpoint)",
        )
        sub.add_argument(
            "--max-batch", type=int, default=32, help="micro-batch size cap (1 disables)"
        )
        sub.add_argument(
            "--max-wait-ms",
            type=float,
            default=0.0,
            help="micro-batch linger for stragglers (0: dispatch when the queue empties)",
        )

    predict = subparsers.add_parser(
        "predict",
        help="predict stored rows with a checkpointed model",
    )
    add_serving_args(predict)
    predict.add_argument(
        "--ids", default="0,1,2,3,4,5,6,7", help="comma-separated row ids to predict"
    )
    predict.set_defaults(func=_cmd_predict)

    serve = subparsers.add_parser(
        "serve",
        help="run the micro-batched prediction service under synthetic load",
        description="Drive the prediction service with a closed-loop 80/20 workload.  "
        "Stored rows are answered out of one score array per process (per worker "
        "with --workers): a prediction and a filled flag per row, n_rows x 9 bytes, "
        "filled on first touch and never evicted.  A linear model scores a touched "
        "shard whole in the compressed domain; ffnn decodes and scores the missing rows.",
    )
    add_serving_args(serve)
    serve.add_argument("--requests", type=int, default=2000, help="total requests to issue")
    serve.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 serves through the multi-process cluster tier",
    )
    serve.add_argument(
        "--backlog",
        type=int,
        default=64,
        help="max in-flight requests per worker (cluster mode)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in ms; past-deadline queued work is shed "
        "with an explicit error (cluster mode)",
    )
    serve.add_argument(
        "--admission",
        choices=("block", "reject"),
        default="block",
        help="policy when every worker queue is full: block until a slot "
        "frees (bounded by the deadline) or reject immediately",
    )
    serve.set_defaults(func=_cmd_serve)

    obs = subparsers.add_parser(
        "obs", help="observability: dump spans or print the metrics snapshot"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_dump = obs_sub.add_parser(
        "dump",
        help="run a small encode+train+scan exercise and dump the recorded spans",
    )
    obs_dump.add_argument(
        "--format",
        choices=("json", "chrome"),
        default="json",
        help='span dump format: "json" (native) or "chrome" (chrome://tracing)',
    )
    obs_dump.add_argument(
        "--rows", type=int, default=400, help="rows in the exercise dataset"
    )
    obs_dump.add_argument(
        "--output", default=None, help="write the dump here instead of stdout"
    )
    obs_dump.set_defaults(func=_cmd_obs_dump)

    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="run the same exercise and print the process metrics snapshot",
    )
    obs_metrics.add_argument(
        "--rows", type=int, default=400, help="rows in the exercise dataset"
    )
    obs_metrics.add_argument(
        "--prefix", default="", help="only metrics whose dotted name starts with this"
    )
    obs_metrics.set_defaults(func=_cmd_obs_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
