"""Seeded generator for the `scale` workload.

Writes a synthetic schema as DDL (`gen.sql`), its context-of annotations
(`gen.ctx`), a mock script for the joining task (`gen.mockjson`) and the
oracle for both arms (`gen.oracle.json`). comdb receives only the first
three files. The oracle is derived from how the data is built, not from
comdb: the expected prompt text is rendered here independently, so its
sha256 pins the exact bytes comdb must send.

Shape: 1000 tables x 30 headers; about one condensed relation per table
(1-8 subjects, 1-4 objects); one header group per ~10 tables. The
with-context mock answer is a valid 3-table join; the without-context
answer names a missing column, so that arm is expected to fail.

    python3 perfbench/scale_gen.py --seed 7 --out /tmp/scale
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

N_TABLES = 1000
N_HEADERS = 30
N_RELATIONS = N_TABLES
N_GROUPS = N_TABLES // 10
REPETITIONS = 10
MISSING_COLUMN = "missing_col"

# Mirrors the SQL directive the joining prompt ends with; part of the oracle.
SQL_DIRECTIVE = (
    "Write the complete SQL query inside one fenced code block, with "
    "nothing else inside the block."
)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _word(rng: random.Random, low: int, high: int) -> str:
    length = rng.randint(low, high)
    return "".join(rng.choice(_CONSONANTS if i % 2 == 0 else _VOWELS)
                   for i in range(length))


def _header_list(headers) -> str:
    if len(headers) == 2:
        return f"{headers[0]} and {headers[1]}"
    return ", ".join(headers[:-1]) + f", and {headers[-1]}"


def generate(seed: int) -> dict:
    """Build the workload in memory: file texts plus the oracle."""
    rng = random.Random(seed)
    tables = []
    for i in range(N_TABLES):
        name = f"t{i:04d}_{_word(rng, 3, 9)}"
        headers = [f"{_word(rng, 1, 4)}_{j:02d}" for j in range(N_HEADERS)]
        headers[0] = "Id"
        tables.append((name, headers))
    names = [name for name, _ in tables]

    relations = []
    for i in range(N_RELATIONS):
        n_subjects = rng.randint(1, 8)
        n_objects = rng.randint(2, 4) if i == 0 else rng.randint(1, 4)
        picked = rng.sample(names, n_subjects + n_objects)
        relations.append((picked[:n_subjects], picked[n_subjects:]))

    groups = []
    for _ in range(N_GROUPS):
        name, headers = tables[rng.randrange(N_TABLES)]
        picked = rng.sample(headers[1:], rng.randint(2, 5))
        groups.append((name, picked, f"{name}'s {_word(rng, 4, 8)}"))

    ddl = [f"-- synthetic schema, seed {seed}: {N_TABLES} tables x {N_HEADERS} headers"]
    ddl += [f"CREATE TABLE {name} ({', '.join(h + ' TEXT' for h in headers)});"
            for name, headers in tables]
    ctx = [f"# synthetic annotations, seed {seed}"]
    ctx += [f"{', '.join(s)} => {', '.join(o)}" for s, o in relations]
    ctx += [f"{', '.join(f'{t}.{h}' for h in hs)} => concept: {c}" for t, hs, c in groups]

    # The mock answers join the first relation's subject to two of its objects.
    headers_of = dict(tables)
    subject, first, second = relations[0][0][0], relations[0][1][0], relations[0][1][1]
    goal = (f"To create a SQL query that lists the rows of {subject} with "
            f"the matching {first} and {second} rows.")

    def join_sql(selected: str) -> str:
        return (f"SELECT {subject}.{selected} AS subject_value,\n"
                f"       {first}.{headers_of[first][1]} AS first_value,\n"
                f"       {second}.{headers_of[second][2]} AS second_value\n"
                f"FROM {subject}\n"
                f"JOIN {first} ON {subject}.{headers_of[subject][3]} = {first}.Id\n"
                f"JOIN {second} ON {subject}.{headers_of[subject][4]} = {second}.Id;")

    responses = {
        "with-context": ("Following the context relations, the query joins "
                         f"through {subject}:\n\n```sql\n"
                         f"{join_sql(headers_of[subject][1])}\n```\n"),
        "without-context": ("Joining the tables directly:\n\n```sql\n"
                            f"{join_sql(MISSING_COLUMN)}\n```\n"),
    }
    mock = [{"task": "tables-joining", "arm": arm, "response": text}
            for arm, text in responses.items()]

    base = "\n".join(
        f"{'Given' if i == 0 else 'And'} a table '{name}' with headers: {', '.join(headers)}."
        for i, (name, headers) in enumerate(sorted(tables)))
    contextual = "\n".join(
        [f"{', '.join(s)} are in the context of {', '.join(o)}." for s, o in relations]
        + [f"In table '{t}', headers {_header_list(hs)} are in the context of {c}."
           for t, hs, c in groups])
    prompts = {"with-context": "\n".join([base, contextual, goal, SQL_DIRECTIVE]),
               "without-context": "\n".join([base, goal, SQL_DIRECTIVE])}

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    expected = {
        "with-context": {"aggregate": {"successRate": 1.0}, "ok": True, "error": None},
        "without-context": {"aggregate": {"successRate": 0.0}, "ok": False,
                            "error": f"no such column: {subject}.{MISSING_COLUMN}"},
    }
    oracle = {"joining": {arm: dict(expected[arm], n=REPETITIONS,
                                    promptSha256=sha(prompts[arm]),
                                    responseSha256=sha(responses[arm]),
                                    promptBytes=len(prompts[arm].encode("utf-8")))
                          for arm in ("with-context", "without-context")}}
    counts = {"tables": N_TABLES, "headers": N_TABLES * N_HEADERS,
              "relations": len(relations),
              "directedPairs": sum(len(s) * len(o) for s, o in relations),
              "headerGroups": len(groups)}
    return {"sql": "\n".join(ddl) + "\n", "ctx": "\n".join(ctx) + "\n",
            "mock": json.dumps(mock, indent=2) + "\n", "goal": goal,
            "oracle": oracle, "counts": counts}


def write(seed: int, out: Path) -> dict:
    """Write gen.sql, gen.ctx, gen.mockjson and gen.oracle.json under out."""
    out.mkdir(parents=True, exist_ok=True)
    data = generate(seed)
    (out / "gen.sql").write_text(data["sql"], encoding="utf-8")
    (out / "gen.ctx").write_text(data["ctx"], encoding="utf-8")
    (out / "gen.mockjson").write_text(data["mock"], encoding="utf-8")
    oracle = {"seed": seed, "goal": data["goal"], "counts": data["counts"],
              "expected": data["oracle"]}
    (out / "gen.oracle.json").write_text(json.dumps(oracle, indent=2) + "\n",
                                         encoding="utf-8")
    return oracle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    oracle = write(args.seed, args.out)
    print(json.dumps(oracle["counts"]))


if __name__ == "__main__":
    main()
