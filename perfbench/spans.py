"""In-memory span tracer wrapped around conerec's public functions.

Each wrapped call is a span with a name, start, end, parent span and the
command it belongs to; the root spans are cli.main calls, one per command.  A span's self time is
its duration minus the time its child spans cover.

Wrapping is installed from outside: every place a traced function is
bound gets the wrapper, because conerec binds some of them by name
(reconstruct imports build_section, the shoot kernel is reached through
the _backend.kernels module, omega lives on chart instances).
uninstall() restores the originals, so one process can alternate
untraced and traced passes over the same commands.
"""

from __future__ import annotations

import os
import time

# Scope spans attribute the calls of other spans made while they are open,
# which gives the per-point and per-call ratios.
POINT_SCOPES = ("reconstruct.reconstruct_spin_n", "reconstruct.reconstruct_dirac")


def _load_bytes(args, kwargs, result):
    """Descriptor plus blob bytes read by load_cone_data."""
    path = args[0] if args else kwargs["path"]
    base = path[:-5] if path.endswith(".json") else path
    return os.path.getsize(base + ".json") + result.values.nbytes


class Tracer:
    """Spans and per-name aggregates for one traced pass."""

    def __init__(self):
        self._patches = []
        self.stats = {}            # name -> [calls, total_s, self_s, work]
        self.scoped = {}           # (scope, name) -> [calls, work]
        self.spans = []            # [name, start, end, parent, command] (indices)
        self.coverage = []         # per root span: covered share of its duration
        self._stack = []           # open frames: [covered_s, span index]

    # -- wrappers -------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def span(self, name, fn, work=None, tally=()):
        """Wrap fn as a stored span; tally names are counted within it."""
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tallied = [(self._stat(n), self.scoped.setdefault((name, n), [0, 0]))
                   for n in tally]

        def traced(*args, **kwargs):
            index = len(spans)
            if stack:
                spans.append([name, 0.0, 0.0, stack[-1][1], stack[0][1]])
            else:
                spans.append([name, 0.0, 0.0, -1, index])
            frame = [0.0, index]
            before = [(s[0], s[3]) for s, _ in tallied]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec = spans[index]
                rec[1], rec[2] = t0, t1
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.coverage.append(frame[0] / dur if dur > 0 else 1.0)
                for (s, acc), (calls, wk) in zip(tallied, before):
                    acc[0] += s[0] - calls
                    acc[1] += s[3] - wk
            if work is not None:
                stat[3] += work(args, kwargs, result)
            return result

        return traced

    def reset(self):
        """Forget what was recorded so far; the installed wrappers stay."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        for acc in self.scoped.values():
            acc[:] = [0, 0]
        self.spans.clear()
        self.coverage.clear()

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, cli):
        """Wrap the conerec layers; returns the traced cli.main."""
        from conerec import cone, nulldata, reconstruct, transport
        from conerec.cone import SphereGrid
        from conerec.nulldata import ConeData

        nodes = lambda a, k, r: r.n_nodes  # noqa: E731
        steps = lambda a, k, r: a[-1]      # noqa: E731
        self._patch(SphereGrid, "__post_init__",
                    self.span("cone.SphereGrid", SphereGrid.__post_init__))
        build = self.span("cone.build_section", cone.build_section, work=nodes)
        self._patch(cone, "build_section", build)
        self._patch(reconstruct, "build_section", build)
        for meth in ("evaluate", "radial_derivative"):
            self._patch(ConeData, meth, self.span(f"nulldata.ConeData.{meth}",
                                                  ConeData.__dict__[meth]))
        self._patch(nulldata, "load_cone_data",
                    self.span("nulldata.load_cone_data", nulldata.load_cone_data,
                              work=_load_bytes))
        per_point = ("cone.SphereGrid", "cone.build_section")
        for fn in ("reconstruct_spin_n", "reconstruct_dirac"):
            self._patch(reconstruct, fn, self.span(f"reconstruct.{fn}",
                                                   getattr(reconstruct, fn),
                                                   tally=per_point))
        self._patch(transport.kernels, "shoot_endpoint",
                    self.span("transport.kernels.shoot_endpoint",
                              transport.kernels.shoot_endpoint, work=steps))
        self._patch(transport, "world_function",
                    self.span("transport.world_function", transport.world_function,
                              tally=("transport.kernels.shoot_endpoint",)))
        per_call = ("transport.world_function", "transport.kernels.shoot_endpoint")
        for fn in ("null_connect", "transport_k", "van_vleck_k", "conformal_k",
                   "transport_spin_frame"):
            self._patch(transport, fn, self.span(f"transport.{fn}",
                                                 getattr(transport, fn),
                                                 tally=per_call))
        make_chart = transport.make_chart

        def traced_chart(*args, **kwargs):
            chart = make_chart(*args, **kwargs)
            chart.omega = self.span("transport.chart.omega", chart.omega)
            return chart

        self._patch(transport, "make_chart",
                    self.span("transport.make_chart", traced_chart))
        self._patch(cli, "_write_json", self.span("cli.write_output", cli._write_json))
        return self.span("cli.main", cli.main)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ------------------------------------------------------------

    def counts(self):
        """Deterministic part of the trace: calls and work per name and scope."""
        out = {f"{n}.calls": s[0] for n, s in self.stats.items()}
        out.update({f"{n}.work": s[3] for n, s in self.stats.items() if s[3]})
        for (scope, n), (calls, wk) in self.scoped.items():
            out[f"{scope}>{n}.calls"] = calls
            if wk:
                out[f"{scope}>{n}.work"] = wk
        return out

    def scoped_sum(self, scopes, name, index=0):
        return sum(self.scoped.get((s, name), [0, 0])[index] for s in scopes)
