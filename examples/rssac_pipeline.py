#!/usr/bin/env python3
"""From published RSSAC-002 files to Table 3.

The paper's event-size analysis (§3.1) starts from the YAML documents
root operators publish.  This example walks that exact pipeline on
simulated data: simulate the events, export each reporting letter's
daily statistics as RSSAC-002 YAML, read the files back as an analyst
would, and estimate the event size from nothing but those files.
"""

import tempfile
from pathlib import Path

from repro import ScenarioConfig, simulate
from repro.core import event_size_table, letter_event_size
from repro.rootdns import ATTACKED_LETTERS, RSSAC_REPORTING_LETTERS
from repro.rssac.serialize import load_reports, save_reports


def main() -> None:
    print("simulating the events (RSSAC reporters only need rates) ...")
    result = simulate(ScenarioConfig(seed=42, n_stubs=400, n_vps=300))

    with tempfile.TemporaryDirectory() as tmp:
        print("publishing RSSAC-002 YAML, one file per letter:")
        paths = {}
        for letter in RSSAC_REPORTING_LETTERS:
            path = Path(tmp) / f"{letter.lower()}-root-rssac002.yaml"
            count = save_reports(result.rssac[letter], path)
            paths[letter] = path
            print(f"  {path.name}: {count} letter-days, "
                  f"{path.stat().st_size} bytes")

        print()
        print("reading the files back (analyst view, no simulator "
              "access):")
        published = {
            letter: tuple(load_reports(path))
            for letter, path in paths.items()
        }

    for date in ("2015-11-30", "2015-12-01"):
        print()
        table = event_size_table(
            published, ATTACKED_LETTERS, date, len(ATTACKED_LETTERS)
        )
        print(table.render())

    # The attack identification trick of §3.1: the event shows up as
    # an unusually popular query-size bin.
    a_nov30 = next(
        r for r in published["A"] if r.date == "2015-11-30"
    )
    a_quiet = published["A"][0]
    print()
    print(
        f"attack-bin identification: A-Root's dominant query bin moved "
        f"from {a_quiet.dominant_query_bin()}B (quiet) to "
        f"{a_nov30.dominant_query_bin()}B (event day) -- the fixed "
        f"32-byte www.336901.com query"
    )
    size = letter_event_size(published["A"], "2015-11-30", attacked=True)
    print(
        f"A-Root delta: {size.delta_queries_mqps:.2f} Mq/s "
        f"({size.delta_queries_gbps:.2f} Gb/s); paper: 5.12 Mq/s"
    )


if __name__ == "__main__":
    main()
