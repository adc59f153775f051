"""``ResultCache`` writes are safe when threads of one process race.

The service executes jobs on a thread pool, so two threads may store
the same key at once. Every write must land atomically through its own
temp file: no writer may see another's temp file vanish under it, and
the final entry must be one complete payload.
"""

import json
import threading

from repro.eval.parallel import ResultCache

KEY = "e" * 64
THREADS = 4
WRITES = 300


def test_threads_racing_on_one_key_never_fail(tmp_path):
    cache = ResultCache(tmp_path)
    errors = []
    start = threading.Barrier(THREADS)

    def writer(tid):
        start.wait()
        for i in range(WRITES):
            try:
                cache.put_result(KEY, {"thread": tid, "write": i})
            except Exception as exc:  # noqa: BLE001 - the test counts them
                errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert errors == []
    final = json.loads((cache.results_dir / f"{KEY}.json").read_text(encoding="utf-8"))
    assert final["write"] == WRITES - 1
    assert sorted(p.name for p in cache.results_dir.iterdir()) == [f"{KEY}.json"]


def test_stats_ignores_temp_files_and_clear_removes_them(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put_result(KEY, {"status": "ok"})
    (cache.results_dir / f".{KEY}.json.leftover.tmp").write_text("{torn")
    stats = cache.stats()
    assert stats["results"] == 1
    assert stats["eval_results"] == 1
    assert cache.clear() == 2
    assert list(cache.results_dir.iterdir()) == []
