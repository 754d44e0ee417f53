//! Criterion micro-benchmark for the external merge sort that re-orders
//! oblivious-storage levels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use stegfs_blockdev::MemDevice;
use stegfs_oblivious::{ExternalSorter, SortRecord};

fn records(n: u64) -> Vec<SortRecord> {
    (0..n)
        .map(|i| SortRecord {
            key: i.wrapping_mul(0x9e3779b97f4a7c15),
            id: i,
            payload: vec![(i % 256) as u8; 1024],
        })
        .collect()
}

fn bench_external_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_merge_sort");
    for n in [256u64, 1024, 4096] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("records", n), &n, |b, &n| {
            let input = records(n);
            b.iter(|| {
                let sorter = ExternalSorter::new(MemDevice::new(2 * n + 8, 2048), 64);
                let mut count = 0u64;
                sorter
                    .sort(
                        input.clone().into_iter().map(Ok),
                        |_| Ok(()),
                        |_| {
                            count += 1;
                            Ok(())
                        },
                    )
                    .unwrap();
                assert_eq!(count, n);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_external_sort);
criterion_main!(benches);
