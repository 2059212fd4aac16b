"""Compression explorer: how column segments encode different data.

Loads the six synthetic dataset regimes and prints, per column segment,
which encoding the compressor chose (dictionary / value / raw; RLE vs
bit-pack) and what it achieved — the machinery behind the paper's
compression results.

Run with:  python examples/compression_explorer.py
"""

from repro.bench.datagen import DATASET_SPECS, make_dataset
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.storage.encodings import BitpackBlock, RawBlock
from repro.storage.rle import RleBlock
from repro.txn import autocommit

ROWS = 50_000


def stream_kind(segment) -> str:
    if isinstance(segment.stream, RleBlock):
        return f"RLE ({segment.stream.n_runs:,} runs)"
    if isinstance(segment.stream, BitpackBlock):
        return f"bitpack ({segment.stream.width} bits)"
    assert isinstance(segment.stream, RawBlock)
    return "raw"


def main() -> None:
    for spec in DATASET_SPECS:
        dataset = make_dataset(spec.name, ROWS, seed=42)
        index = ColumnStoreIndex(dataset.table_schema, StoreConfig())
        with autocommit(index.mvcc) as txn:
            index.bulk_load_columns(dataset.columns, txn)

        print(f"\n=== {spec.name}: {spec.description}")
        print(
            f"    total: {index.directory.raw_size_bytes / 1024:,.0f} KiB raw -> "
            f"{index.size_bytes / 1024:,.0f} KiB "
            f"({index.directory.raw_size_bytes / index.size_bytes:,.1f}x)"
        )
        group = next(index.directory.row_groups())
        print(f"    {'column':<14} {'scheme':<7} {'stream':<22} "
              f"{'ndv':>7} {'raw KiB':>8} {'enc KiB':>8} {'ratio':>7}")
        for name in dataset.table_schema.names:
            segment = group.segment(name)
            ndv = len(segment.dictionary) if segment.dictionary is not None else "-"
            print(
                f"    {name:<14} {segment.scheme.value:<7} {stream_kind(segment):<22} "
                f"{str(ndv):>7} {segment.raw_size_bytes / 1024:>8.1f} "
                f"{segment.encoded_size_bytes / 1024:>8.1f} "
                f"{segment.compression_ratio:>6.1f}x"
            )

        # Show the archival layer on the most string-heavy dataset.
        if spec.name == "skewed_strings":
            plain = index.size_bytes
            with autocommit(index.mvcc) as txn:
                index.install_row_groups(index.plan_archival(True), txn)
            print(
                f"    archival: {plain / 1024:,.0f} KiB -> "
                f"{index.size_bytes / 1024:,.0f} KiB "
                f"({plain / index.size_bytes:.2f}x extra)"
            )


if __name__ == "__main__":
    main()
