"""In-memory span tracer for the traced benchmark run.

The tracer records spans around calls into the public functions of the
``microlocal`` modules without editing them: it replaces each function's
module attribute by a recording wrapper, and also every other binding of the
same function object inside the package (names imported with ``from .jets
import jet_batch_from_expr`` and the like), so calls one module makes into
another are seen too.  ``uninstall`` puts every original back.

Spans and counters stay in memory until the run ends; ``dump`` writes them to
their own file.  Nothing here touches the artifacts the package writes.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Each benchmark op opens a root span ``op``; time in the root
that no layer span covers is benchmark glue or package code outside the
wrapped functions, reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = "op"


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index, op index]
        self.stack = []          # [span index, summed child duration]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = defaultdict(float)
        self.pending_trees = []  # symbols built by an op, counted after it
        self.op_index = -1
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_index])
        self.stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, child = self.stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.self_s[span[0]] += dur - child
        self.calls[span[0]] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1][0]][0] if self.stack else None

    def begin_op(self, index: int):
        self.op_index = index
        self.active = True
        self._open(ROOT)

    def end_op(self):
        self._close()
        self.active = False
        if self.pending_trees:
            tree, distinct = tree_stats(self.pending_trees)
            self.counters["expr.tree_nodes"] += tree
            self.counters["expr.distinct_nodes"] += distinct
            self.pending_trees = []

    # -- installation ----------------------------------------------------------
    def wrap(self, owner, attr: str, name, before=None, after=None):
        """Wrap ``owner.attr`` and every other binding of it in the package.

        ``name`` is the span name, or a callable of the call's arguments
        returning it.  ``before(tracer, args, kwargs)`` and
        ``after(tracer, args, kwargs, result)`` update counters outside the
        span.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            tracer._open(name(args, kwargs) if callable(name) else name)
            top_level = len(tracer.stack) == 2
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(tracer, args, kwargs, out, top_level)
            return out

        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("microlocal") and mod is not owner:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            targets.append((mod, key))
        for obj, key in targets:
            self._restore.append((obj, key, fn))
            setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, fn in reversed(self._restore):
            setattr(obj, key, fn)
        self._restore = []

    def dump(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        payload["spans"] = self.spans
        payload["self_s"] = dict(self.self_s)
        payload["calls"] = dict(self.calls)
        payload["counters"] = dict(self.counters)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def tree_stats(roots) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) over the given Expr roots.

    Tree nodes count every node of every root's tree walk, repeats included;
    distinct nodes count each structurally different subtree once.  Runs on
    object identities and a private signature table, so no cache inside the
    Expr objects is filled.
    """
    size = {}      # id -> tree size
    canon = {}     # id -> signature number
    table = {}     # (kind, payload, child signatures) -> signature number
    tree_total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            nid = id(node)
            if nid in size:
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if id(c) not in size)
                continue
            size[nid] = 1 + sum(size[id(c)] for c in node.children)
            sig = (node.kind, node.payload, tuple(canon[id(c)] for c in node.children))
            canon[nid] = table.setdefault(sig, len(table))
        tree_total += size[id(root)]
    return tree_total, len(table)
