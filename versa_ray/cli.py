"""Command-line interface.

Mirrors the reference toolchain's CLI surface
(/root/reference/tools/exec/versa:20-141) plus engine-native commands:

    python -m versa_ray.cli parse IN [OUT]
    python -m versa_ray.cli transform RULESPEC.py IN [OUT]
    python -m versa_ray.cli kgbuild PAGES.parquet OUT_DIR [--num-shards N] [--max-shards M]
    python -m versa_ray.cli canonicalize IN [OUT]

Formats by extension: .vlit/.md Versa Literate; .vdump JSON dump;
.ttl Turtle (write-only);
.nt NTriples; .parquet canonical link-set Parquet; '-' canonical
literate on stdout. The `transform` rulespec is a Python file defining
``VERSA_PIPELINE_ENTRY`` with the pipeline-DSL names pre-injected
(same contract as the reference's rulespec plugin).
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline as _pipeline_mod
from .model import vutil
from .model.micro import MicroModel
from .serial import literate, ntriples


def smart_parse(source_path: str, model: MicroModel, only_rel=None, exclude_rel=None):
    if source_path == "-":
        literate.parse_into(sys.stdin.read(), model)
        return
    if source_path.endswith((".vlit", ".md")):
        with open(source_path) as fp:
            literate.parse_into(fp.read(), model)
    elif source_path.endswith(".vdump"):
        with open(source_path) as fp:
            vutil.jsonload(model, fp)
    elif source_path.endswith(".nt"):
        with open(source_path) as fp:
            ntriples.parse(fp.read(), model, only_rel=only_rel, exclude_rel=exclude_rel)
    elif source_path.endswith(".parquet"):
        import pyarrow.parquet as pq

        from .core.canon import row_to_link

        for row in pq.read_table(source_path).to_pylist():
            model.add(*row_to_link(row))
    else:
        raise ValueError("Unable to determine Versa source file format from filename")


def smart_write(dest_path: str, model: MicroModel):
    if dest_path == "-":
        literate.write(model, out=sys.stdout, canonical=True)
        return
    if dest_path.endswith((".vlit", ".md")):
        with open(dest_path, "w") as fp:
            literate.write(model, out=fp, canonical=True)
    elif dest_path.endswith(".vdump"):
        with open(dest_path, "w") as fp:
            vutil.jsondump(model, fp)
    elif dest_path.endswith(".nt"):
        with open(dest_path, "w") as fp:
            ntriples.write(model, out=fp)
    elif dest_path.endswith(".ttl"):
        from .serial import turtle

        with open(dest_path, "w") as fp:
            turtle.write(model, out=fp)
    elif dest_path.endswith(".parquet"):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from .core.canon import LINK_SCHEMA

        pq.write_table(
            pa.Table.from_pylist(model.to_rows(), schema=LINK_SCHEMA), dest_path
        )
    else:
        raise ValueError("Unable to determine Versa output file format from filename")


def cmd_atom2versa(args):
    """Atom feed -> any Versa output format (reference
    tools/exec/atom2versa as a subcommand)."""
    from .serial import atom

    model = MicroModel()
    with open(args.feed) as fp:
        atom.parse(fp.read(), model, base=args.base)
    smart_write(args.gr_out, model)


def cmd_modelsite(args):
    """Versa vocabulary model -> static HTML site (reference
    tools/exec/build_model_site as a subcommand)."""
    from .web.modelsite import build_site

    model = MicroModel()
    smart_parse(args.gr_in, model)
    n = build_site(model, args.out_dir, base=args.base)
    print(f"# wrote {n} pages -> {args.out_dir}")


def cmd_rdfaparse(args):
    """HTML with RDFa-Lite -> any Versa output format (reference
    tools/exec/parse_rdfa as a subcommand)."""
    from .core import RDF_TYPE_REL, VTYPE_REL
    from .web.extract import extract_rdfa

    with open(args.html) as fp:
        html_text = fp.read()
    model = MicroModel()
    for s, p, o, _is_iri in extract_rdfa(html_text, args.base or "file://" + args.html):
        model.add(s, VTYPE_REL if p == RDF_TYPE_REL else p, o)
    smart_write(args.gr_out, model)


def cmd_parse(args):
    model = MicroModel()
    smart_parse(args.gr_in, model)
    smart_write(args.gr_out, model)


def cmd_transform(args):
    gcapture = {}
    gcapture.update(vars(_pipeline_mod))
    lcapture = {}
    with open(args.rulespec, "rb") as fp:
        exec(compile(fp.read(), args.rulespec, "exec"), gcapture, lcapture)
    ppl = lcapture.get("VERSA_PIPELINE_ENTRY") or gcapture.get("VERSA_PIPELINE_ENTRY")
    if ppl is None:
        raise RuntimeError(
            "The rules specification must define a VERSA_PIPELINE_ENTRY object."
        )
    only_rel = getattr(ppl, "only_rel", None)
    exclude_rel = getattr(ppl, "exclude_rel", None)
    model_in = MicroModel()
    smart_parse(args.gr_in, model_in, only_rel=only_rel, exclude_rel=exclude_rel)
    model_out = ppl.run(input_model=model_in)
    smart_write(args.gr_out, model_out)


def cmd_canonicalize(args):
    model = MicroModel()
    smart_parse(args.gr_in, model)
    if args.gr_out == "-":
        print(repr(model))
    else:
        with open(args.gr_out, "w") as fp:
            fp.write(repr(model))


def cmd_kgbuild(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from .web.kgpipeline import build_kg

    links = build_kg(pages_path=args.pages, out_dir=args.out_dir,
                     check_text=args.check_text, num_shards=args.num_shards,
                     max_shards_this_run=args.max_shards)
    if links is None:  # bounded run left shards for the next one
        import glob as _glob

        done = len(_glob.glob(f"{args.out_dir}/manifests/shard-*.json"))
        print(f"shards complete: {done}/{args.num_shards} "
              f"(rerun to continue) -> {args.out_dir}")
        ray.shutdown()
        return
    print(f"linkset rows: {links.count()} -> {args.out_dir}/stage=linkset")
    ray.shutdown()


def cmd_curate(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from .ops.curation import curate_documents

    docs = rd.read_parquet(args.docs)
    curate_documents(
        docs,
        lang_allow=[s.strip() for s in args.lang.split(",")] if args.lang else None,
        min_tokens=args.min_tokens,
        max_digit_ratio=args.max_digit_ratio,
        near_dedup=args.near_dedup,
        near_threshold=args.near_threshold,
        line_dedup_words=args.line_dedup_words or None,
        out_path=args.out_dir,
    )
    # count the WRITTEN parquet (metadata-only) — counting the returned
    # lazy dataset would re-execute the whole pipeline a second time
    n = rd.read_parquet(args.out_dir).count()
    print(f"curated rows: {n} -> {args.out_dir}")
    ray.shutdown()


def cmd_pack(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from .ops.chunking import pack_sequences

    docs = rd.read_parquet(args.docs, columns=[args.id_col, args.text_col])
    spans = pack_sequences(
        docs, args.seq_len, id_col=args.id_col, text_col=args.text_col,
        num_ranges=args.num_ranges,
    )
    spans.write_parquet(args.out_dir)
    out = rd.read_parquet(args.out_dir)
    n_spans = out.count()
    # seq ids are contiguous from 0, so the count is max+1 — no
    # driver-side distinct materialization
    n_seqs = 0 if n_spans == 0 else int(out.max("seq_id")) + 1
    print(f"packed spans: {n_spans} ({n_seqs} sequences of "
          f"{args.seq_len} tokens) -> {args.out_dir}")
    ray.shutdown()


def cmd_kgmatch(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from .model.store import _load_manifest, pruned_fragments, read_linkset

    # one epoch for the file counts and the read, even if a writer
    # commits meanwhile; the read runs once
    man = _load_manifest(args.store, args.epoch)
    epoch = man["epoch"]
    frags = pruned_fragments(
        args.store, rel=args.rel, origin=args.origin, epoch=epoch)
    ds = read_linkset(
        args.store, rel=args.rel, origin=args.origin, epoch=epoch
    ).materialize()
    rows = ds.take(args.limit) if args.limit else ds.take_all()
    for r in rows:
        tgt = f"<{r['target']}>" if r["target_is_iri"] else f'"{r["target"]}"'
        print(f"{r['origin']} <{r['rel']}> {tgt}")
    print(f"# {ds.count()} links; read {len(frags)}/{len(man['files'])} "
          "partition files")
    ray.shutdown()


def cmd_kgquery(args):
    """Full Versa query language over a stored link-set: each ?()
    conjunct is a partition-pruned read; above --ds-threshold distinct
    values the binding sets stay distributed (semi-join threading)."""
    import json as _json

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from .query import execute
    from .query.mini import StoreModel

    variables = {}
    for kv in args.var or []:
        k, _, v = kv.partition("=")
        if not _:
            raise SystemExit(f"--var needs NAME=VALUE, got {kv!r}")
        variables[k] = v
    result = execute(
        StoreModel(args.store), args.query, variables,
        ds_threshold=args.ds_threshold,
    )
    for name in sorted(result):
        vals = sorted(result[name])
        shown = vals if args.limit <= 0 else vals[: args.limit]
        print(_json.dumps({"var": name, "count": len(vals),
                           "values": shown}, ensure_ascii=False))
    ray.shutdown()


def cmd_kgcompact(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from .model.store import compact_linkset

    stats = compact_linkset(args.store, max_files=args.max_files)
    print(
        f"# compacted {stats['partitions_compacted']} partitions; "
        f"{stats['files_before']} -> {stats['files_after']} files"
    )
    ray.shutdown()


def cmd_validate(args):
    import json as _json

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from .ops.validate import validate_shapes

    with open(args.shapes) as f:
        rules = _json.load(f)
    ds = rd.read_parquet(args.links)
    # materialize once: take() and count() would each re-run the
    # lazy corpus scan + shuffle otherwise
    out = validate_shapes(ds, rules).materialize()
    rows = out.take(args.limit) if args.limit else out.take_all()
    for r in rows:
        print(
            f"{r['kind']}\t{r['origin']}\t{r['cls']}\t{r['prop']}\tn={r['n']}"
        )
    print(f"# {out.count()} violations")
    ray.shutdown()


def cmd_kgupdate(args):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from .web.kgpipeline import update_kg

    cols = ["url", "html"] + (["text"] if args.check_text else [])
    pages = rd.read_parquet(args.pages, columns=cols)
    stats = update_kg(pages, args.store, check_text=args.check_text)
    print(
        f"# updated {stats['partitions_updated']} partitions; "
        f"{stats['rows_after']} links after"
    )
    ray.shutdown()


def cmd_kgvacuum(args):
    from .model.store import vacuum_linkset

    stats = vacuum_linkset(args.store, keep_epochs=args.keep)
    print(
        f"# removed {stats['files_removed']} files, "
        f"{stats['manifests_removed']} manifests"
    )


def cmd_kgstats(args):
    """Per-partition lineage/metrics of a stored link-set's current
    epoch, from its manifest alone — no Ray session, no data scan."""
    import json as _json

    from .model.store import _load_manifest, _manifest_metrics

    man = _load_manifest(args.store)
    parts = _manifest_metrics(man["files"])
    total_rows = sum(p["rows"] for p in parts)
    total_files = sum(p["files"] for p in parts)
    print(_json.dumps({
        "store": args.store,
        "epoch": man["epoch"],
        "partitions": len(parts),
        "rows": total_rows,
        "files": total_files,
    }))
    if args.partitions:
        for p in parts:
            print(_json.dumps(p))


def cmd_corpusstats(args):
    import json as _json

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from .ops.agg import approx_quantiles, grouped_agg_small
    from .ops.dedup import exact_dedup

    # one column-pruned read, materialized once — the four metrics
    # below would otherwise each re-scan the corpus (text included)
    ds = rd.read_parquet(
        args.docs, columns=["doc_id", "text", "lang", "n_chars"]
    ).materialize()
    n = ds.count()
    langs = grouped_agg_small(
        ds, ["lang"], {"n": ("doc_id", "size")}
    ).to_pandas().sort_values("lang")
    qs = [0.1, 0.5, 0.9, 0.99]
    chars = approx_quantiles(ds, "n_chars", qs)
    distinct = exact_dedup(ds, key="text", id_col="doc_id").count()
    print(_json.dumps({
        "docs": int(n),
        "distinct_texts": int(distinct),
        "dup_rate": round(1 - distinct / n, 4) if n else 0.0,
        "lang_counts": dict(zip(langs["lang"], langs["n"].astype(int))),
        "n_chars_quantiles": {
            str(q): round(v, 1) for q, v in zip(qs, chars)},
    }, sort_keys=True))
    ray.shutdown()


def main(argv=None):
    ap = argparse.ArgumentParser(prog="versa_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse input, write per output extension")
    p.add_argument("gr_in")
    p.add_argument("gr_out", nargs="?", default="-")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("transform", help="run a VERSA_PIPELINE_ENTRY rulespec")
    p.add_argument("rulespec")
    p.add_argument("gr_in")
    p.add_argument("gr_out", nargs="?", default="-")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("canonicalize", help="canonical JSON form (equality surface)")
    p.add_argument("gr_in")
    p.add_argument("gr_out", nargs="?", default="-")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser(
        "kgbuild",
        help="run the flagship KG pipeline over a pages Parquet corpus; "
             "rerunning on the same OUT_DIR resumes an interrupted build",
    )
    p.add_argument("pages")
    p.add_argument("out_dir")
    p.add_argument("--check-text", action="store_true")
    p.add_argument("--num-shards", type=int, default=1,
                   help="url-hash shards, each checkpointed with a lineage "
                        "manifest; reruns skip finished shards")
    p.add_argument("--max-shards", type=int, default=None,
                   help="bound incomplete shards processed this run")
    p.set_defaults(func=cmd_kgbuild)

    p = sub.add_parser(
        "curate",
        help="curate a documents Parquet corpus (filters -> normalize -> "
             "dedup -> lang-partitioned parquet)",
    )
    p.add_argument("docs", help="documents parquet (doc_id, text, lang)")
    p.add_argument("out_dir")
    p.add_argument("--lang", default=None, help="comma-separated allow-list")
    p.add_argument("--min-tokens", type=int, default=0)
    p.add_argument("--max-digit-ratio", type=float, default=1.0)
    p.add_argument("--near-dedup", action="store_true")
    p.add_argument("--near-threshold", type=float, default=0.5)
    p.add_argument("--line-dedup-words", type=int, default=0,
                   help="CCNet-style line dedup over N-token windows "
                        "(0 = off)")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser(
        "kgmatch",
        help="match links in a stored link-set (partition-pruned read)",
    )
    p.add_argument("store", help="stage=linkset directory written by kgbuild")
    p.add_argument("--rel")
    p.add_argument("--origin")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--epoch", type=int, default=None,
                   help="read a past store epoch (time travel)")
    p.set_defaults(func=cmd_kgmatch)

    p = sub.add_parser(
        "kgquery",
        help="full Versa query language over a stored link-set "
             "(pruned reads; large binding sets stay distributed)",
    )
    p.add_argument("store", help="stage=linkset directory written by kgbuild")
    p.add_argument("query", help="e.g. \"?($a, REL, *) and not ?($a, R2, 'x')\"")
    p.add_argument("--var", action="append", metavar="NAME=VALUE",
                   help="query variable binding (repeatable)")
    p.add_argument("--limit", type=int, default=20,
                   help="values shown per variable (full count always "
                        "printed); 0 or negative = show all")
    p.add_argument("--ds-threshold", type=int, default=None,
                   help="distinct-value count above which binding sets "
                        "stay distributed")
    p.set_defaults(func=cmd_kgquery)

    p = sub.add_parser(
        "kgupdate",
        help="fold a delta page corpus into an existing stored link-set",
    )
    p.add_argument("pages", help="delta pages parquet (url, html)")
    p.add_argument("store", help="stage=linkset directory written by kgbuild")
    p.add_argument("--check-text", action="store_true",
                   help="validate extracted text against the golden column")
    p.set_defaults(func=cmd_kgupdate)

    p = sub.add_parser(
        "kgvacuum",
        help="garbage-collect store files unreferenced by recent epochs",
    )
    p.add_argument("store", help="linkset store directory")
    p.add_argument("--keep", type=int, default=2,
                   help="number of newest epochs to keep readable")
    p.set_defaults(func=cmd_kgvacuum)

    p = sub.add_parser(
        "kgstats",
        help="per-partition lineage/metrics of a stored link-set "
             "(current epoch manifest only; no Ray session)",
    )
    p.add_argument("store", help="stage=linkset directory")
    p.add_argument("--partitions", action="store_true",
                   help="also print one JSON line per partition")
    p.set_defaults(func=cmd_kgstats)

    p = sub.add_parser(
        "corpusstats",
        help="one-line JSON corpus report (counts, langs, dup rate, "
             "length quantiles)",
    )
    p.add_argument("docs", help="documents parquet (doc_id, text, lang, n_chars)")
    p.set_defaults(func=cmd_corpusstats)

    p = sub.add_parser(
        "pack",
        help="GPT-style sequence packing: (doc, seq) token spans parquet",
    )
    p.add_argument("docs", help="documents parquet")
    p.add_argument("out_dir", help="output parquet directory")
    p.add_argument("--seq-len", dest="seq_len", type=int, default=2048)
    p.add_argument("--id-col", dest="id_col", default="doc_id")
    p.add_argument("--text-col", dest="text_col", default="text")
    p.add_argument("--num-ranges", dest="num_ranges", type=int, default=64)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser(
        "kgcompact",
        help="compact partitions fragmented by older store writers",
    )
    p.add_argument("store", help="linkset store directory")
    p.add_argument("--max-files", type=int, default=1)
    p.set_defaults(func=cmd_kgcompact)

    p = sub.add_parser("rdfaparse", help="RDFa-Lite HTML -> Versa output")
    p.add_argument("html", help="HTML file with RDFa-Lite markup")
    p.add_argument("gr_out", help="output ('-', .vlit, .nt, .ttl, .parquet, ...)")
    p.add_argument("--base", default=None, help="source IRI (default file://<path>)")
    p.set_defaults(func=cmd_rdfaparse)

    p = sub.add_parser("atom2versa", help="Atom feed -> Versa output")
    p.add_argument("feed", help="Atom XML file")
    p.add_argument("gr_out", help="output ('-', .vlit, .nt, .ttl, .parquet, ...)")
    p.add_argument("--base", default="http://example.org/feed/",
                   help="base IRI for minted entry resources")
    p.set_defaults(func=cmd_atom2versa)

    p = sub.add_parser(
        "modelsite", help="render a vocabulary model as a static HTML site"
    )
    p.add_argument("gr_in", help="model input (.vlit/.md/.nt/...)")
    p.add_argument("out_dir")
    p.add_argument("--base", default=None)
    p.set_defaults(func=cmd_modelsite)

    p = sub.add_parser(
        "validate",
        help="SHACL-lite shape validation of a links parquet dataset",
    )
    p.add_argument("links", help="parquet path with quad-schema links")
    p.add_argument("shapes", help="JSON list of shape rules "
                   '[{"target_type":..,"property":..,"min":..,"max":..}]')
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_validate)

    args = ap.parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early — standard
        # unix behavior, not an error
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)


if __name__ == "__main__":
    main()
