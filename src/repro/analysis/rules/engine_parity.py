"""RPR004 — engine parity: the staged and batched engines must drift
at lint time, not in the fuzz suite.

DESIGN.md section 7 argues the batched engine is *bit-identical* to the
staged pipeline.  It rests on a two-pass split: pass 1 (``scalar_one``,
``small_window``, ``vec_window`` and ``batch_faults``) handles faults
and accounting and only *records* each access's translation head,
physical address and home chiplet; pass 2 replays the records level by
level — ``translation_pass`` against ``TranslationPath.access`` and
``data_pass`` against ``DataStage.process``.  That argument decays the
first time someone edits one side, so this rule checks both halves:

* the **data pass** consults the memory hierarchy in the staged order.
  Every identifier the functions touch is classified into a channel
  (L1, REMOTE_CACHE, RING, L2, DRAM) via an explicit token table; per
  function, tokens are ordered by source position and reduced to
  first-occurrence order, and ``data_pass`` must report the same order
  as ``DataStage.process`` (canonically L1 → REMOTE_CACHE → L2 → RING →
  DRAM: the remote-cache *hit* pays L2 latency before any ring
  traversal is costed);
* the **translation pass** visits L1_TLB → L2_TLB → WALK in the order
  of ``TranslationPath.access`` (its multi-page branch skipped);
* **pass 1 stays out of both**: a cache probe, ring charge, DRAM
  access, TLB probe, walk or tracker update put back into a window
  would run ahead of records pass 2 has not replayed yet, exactly the
  reordering the two-pass argument forbids.  Only the record-time
  ``unit_tuple`` and ``window_mask`` (the head's unit and fill mask,
  which read the page table at the head's trace position) are allowed.

Two auxiliary parity checks ride along: the ring transfer payload
constant must agree between the staged literal and ``_TRANSFER_BYTES``,
and ``policy.on_epoch`` may only fire through the shared
``close_epoch`` (both engines must share one epoch semantics).

Another check covers the vectorized fault path: when ``batch_faults``
exists it must route every fault through the staged ``FaultStage``
binding (``fault``) — never call ``place`` / ``map_single`` /
``map_page`` / ``map_into_region`` / ``ensure_region`` directly.  The
bit-identity argument for fault batching rests entirely on
*orchestrating* the staged fault sequence, not reimplementing it; a
direct placement call in that function is exactly the drift this rule
exists to catch.

One deliberate exception: the **bulk fault path** may inline the PTE
install (a ``MappingRecord`` construction) — but only inside an ``if``
fenced by ``bulk_proven``, and only when ``bulk_proven`` is derived
from membership of the policy's unbound ``place`` in the audited
``AUDITED_PLACE`` table (on top of ``fault_batch_eligible``).  The
fence is what turns "reimplementation" back into a sound
transformation: the inlined statements are provably the body ``place``
would have executed.  An unfenced ``MappingRecord`` install, or a
``bulk_proven`` that no longer references the audit table, is drift.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core import (
    Finding,
    Project,
    SourceFile,
    call_name,
    iter_nodes_in_order,
    register,
)

PIPELINE_FILE = "sim/pipeline.py"
BATCH_FILE = "sim/batch.py"

#: Identifier -> data-path channel.  Exact names, not substrings: the
#: table is the normalization contract, and a rename that escapes it
#: fails the lint loudly (update the table with the rename).
DATA_CHANNELS: Dict[str, str] = {
    # L1 data cache
    "l1_caches": "L1",
    "l1_latency": "L1",
    # remote cache
    "remote_caches": "REMOTE_CACHE",
    "rc_caches": "REMOTE_CACHE",
    "rc_insert_all": "REMOTE_CACHE",
    "rc_lookups": "REMOTE_CACHE",
    "rc_hit": "REMOTE_CACHE",
    "rc_hits": "REMOTE_CACHE",
    "remote_lookups": "REMOTE_CACHE",
    "remote_hits": "REMOTE_CACHE",
    "use_rc": "REMOTE_CACHE",
    "should_insert": "REMOTE_CACHE",
    # ring / inter-chiplet transfer
    "ring": "RING",
    "rcost_pair": "RING",
    "hops_tab": "RING",
    "_TRANSFER_BYTES": "RING",
    "record_transfer": "RING",
    "ring_pairs": "RING",
    "pair_counts": "RING",
    "vec_on_ring": "RING",
    "remote_on_ring": "RING",
    # home L2
    "l2_caches": "L2",
    "l2_latency": "L2",
    "l2_hit": "L2",
    # DRAM
    "dram": "DRAM",
    "to_dram": "DRAM",
    "open_row": "DRAM",
    "open_row_get": "DRAM",
    "ch_accesses": "DRAM",
    "row_hit_c": "DRAM",
    "row_miss_c": "DRAM",
    "row_hits": "DRAM",
    "ROW_SIZE": "DRAM",
}

#: Identifier -> translation-path channel (staged and batched names).
TRANSLATION_CHANNELS: Dict[str, str] = {
    "unit_for": "UNIT",
    "unit_tuple": "UNIT",
    "units": "UNIT",
    "tlb_pairs": "TLB_PAIR",
    "_tlbs": "TLB_PAIR",
    "l1": "L1_TLB",
    "l1t": "L1_TLB",
    "L1_TLB": "L1_TLB",
    "l2": "L2_TLB",
    "l2t": "L2_TLB",
    "L2_TLB": "L2_TLB",
    "l2_tlb_latency": "L2_TLB",
    "walk": "WALK",
    "walker": "WALK",
    "walkers": "WALK",
    "walk_cache": "WALK",
    "step_tab": "WALK",
    "remote_tracker": "RT",
    "remote_trackers": "RT",
    "window_mask": "MASK",
    "valid_mask_for": "MASK",
    "TLBEntry": "TLB_INSERT",
}

#: Levels whose order must match the staged ``TranslationPath.access``.
TRANSLATION_LEVELS = ("L1_TLB", "L2_TLB", "WALK")
#: Every translation token but the two a pass-1 function records a head
#: with (its unit and fill mask).
PASS1_TRANSLATION_BAN = {
    token: channel for token, channel in TRANSLATION_CHANNELS.items()
    if token not in ("unit_tuple", "window_mask")
}
HIERARCHY_FILE = "tlb/hierarchy.py"

#: The batched engine's one data-path implementation (pass 2), which
#: must agree with the staged stage.
DATA_PASS_FUNC = "data_pass"

TRANSLATION_PASS_FUNC = "translation_pass"

#: The batched pass-1 functions: faults and accounting, recording heads
#: and data accesses, never a data-path or translation channel.
PASS1_FUNCS = ("scalar_one", "small_window", "vec_window", "batch_faults")


def _finding(
    src: SourceFile, node: ast.AST, message: str
) -> Finding:
    return Finding(
        code="RPR004",
        path=src.path,
        rel=src.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _nodes(source: Union[SourceFile, ast.AST]) -> Iterable[ast.AST]:
    """All nodes of a source file (memoized walk) or an AST subtree."""
    if isinstance(source, SourceFile):
        return source.nodes()
    return ast.walk(source)


def _find_function(
    source: Union[SourceFile, ast.AST], name: str
) -> Optional[ast.FunctionDef]:
    for node in _nodes(source):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _find_class(
    source: Union[SourceFile, ast.AST], name: str
) -> Optional[ast.ClassDef]:
    for node in _nodes(source):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _tokens_in_order(
    nodes: Sequence[ast.AST], table: Dict[str, str]
) -> List[str]:
    """Channel stream for identifier tokens, in source order."""
    stream: List[str] = []
    for node in nodes:
        token: Optional[str] = None
        if isinstance(node, ast.Name):
            token = node.id
        elif isinstance(node, ast.Attribute):
            token = node.attr
        if token is None:
            continue
        channel = table.get(token)
        if channel is not None:
            stream.append(channel)
    return stream


def _body_nodes(func: ast.FunctionDef) -> List[ast.AST]:
    """Position-ordered nodes of the *body* only — the batch engine's
    default-binding idiom (``paths=paths``) repeats every hot name
    in the signature, which must not count as a memory-path touch."""
    nodes: List[ast.AST] = []
    for stmt in func.body:
        nodes.extend(iter_nodes_in_order(stmt))
    return nodes


def _first_occurrence(stream: Sequence[str]) -> Tuple[str, ...]:
    seen: List[str] = []
    for channel in stream:
        if channel not in seen:
            seen.append(channel)
    return tuple(seen)


def _data_sequence(func: ast.FunctionDef) -> Tuple[str, ...]:
    return _first_occurrence(_tokens_in_order(_body_nodes(func),
                                              DATA_CHANNELS))


def _translation_sequence(func: ast.FunctionDef) -> Tuple[str, ...]:
    """First-occurrence order of the translation levels in ``func``,
    skipping any statement guarded by ``multi_page``."""
    nodes: List[ast.AST] = []
    for stmt in func.body:
        if isinstance(stmt, ast.If) and any(
            isinstance(n, ast.Attribute) and n.attr == "multi_page"
            for n in ast.walk(stmt.test)
        ):
            continue
        nodes.extend(iter_nodes_in_order(stmt))
    stream = _tokens_in_order(nodes, TRANSLATION_CHANNELS)
    return _first_occurrence(
        [ch for ch in stream if ch in TRANSLATION_LEVELS]
    )


def _translation_reference(project: Project) -> Tuple[str, ...]:
    """Level order of ``TranslationPath.access`` (canonical without it)."""
    hierarchy = project.source(HIERARCHY_FILE)
    path_cls = (
        _find_class(hierarchy, "TranslationPath") if hierarchy else None
    )
    access = _find_function(path_cls, "access") if path_cls else None
    if access is None:
        return TRANSLATION_LEVELS
    return _translation_sequence(access)


def _ring_payload_literal(func: ast.FunctionDef) -> Optional[int]:
    """The integer payload passed to ``ring.record_transfer`` in the
    staged data stage."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name.endswith("record_transfer"):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, int
                    ):
                        return arg.value
    return None


def _module_int(tree: ast.Module, name: str) -> Optional[int]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                return node.value.value
    return None


def _calls_function(func: ast.FunctionDef, callee: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (call_name(node) or "").split(".")[-1] == callee
        for node in ast.walk(func)
    )


#: Placement primitives the vectorized fault path must never call
#: directly: faults are *orchestrated* through the staged FaultStage
#: binding, which owns the placement call and its error enrichment.
FAULT_PLACEMENT_CALLS = (
    "place",
    "map_single",
    "map_page",
    "map_into_region",
    "ensure_region",
)


def _guarded_node_ids(root: ast.AST, guard: str) -> set:
    """ids of nodes under an ``if`` whose test reads ``guard``.

    Only ``if`` *bodies* count — the ``else`` branch of a guarded test
    is by construction the unguarded path.
    """
    guarded: set = set()

    def visit(node: ast.AST, active: bool) -> None:
        if isinstance(node, ast.If):
            test_names = {
                n.id for n in ast.walk(node.test)
                if isinstance(n, ast.Name)
            }
            body_active = active or guard in test_names
            for child in node.body:
                visit(child, body_active)
            for child in node.orelse:
                visit(child, active)
            return
        if active:
            guarded.add(id(node))
        for child in ast.iter_child_nodes(node):
            visit(child, active)

    visit(root, False)
    return guarded


def _bulk_proof_intact(source: Union[SourceFile, ast.AST]) -> bool:
    """True when ``bulk_proven`` is assigned from an expression that
    reads both ``fault_batch_eligible`` and the ``AUDITED_PLACE`` audit
    table — the static proof the bulk fault path's fence relies on."""
    for node in _nodes(source):
        if not isinstance(node, ast.Assign):
            continue
        targets = {
            t.id for t in node.targets if isinstance(t, ast.Name)
        }
        if "bulk_proven" not in targets:
            continue
        names = {
            n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
        }
        if {"fault_batch_eligible", "AUDITED_PLACE"} <= names:
            return True
    return False


def _check_fault_batching(batch: SourceFile) -> Iterator[Finding]:
    """``batch_faults`` (when present) must route through the staged
    fault sequence: it may reorder and group faults, but each one must
    resolve via the bound ``FaultStage.process`` (``fault``), with no
    direct placement calls — fault batching is orchestration, not a
    second placement implementation.  The single
    sanctioned exception is the bulk path's inlined PTE install
    (``MappingRecord``), which must sit behind the ``bulk_proven``
    fence, itself derived from the ``AUDITED_PLACE`` proof."""
    func = _find_function(batch, "batch_faults")
    if func is None:
        # Pre-fault-batching tree (or fixture): nothing to check.
        return
    if not _calls_function(func, "fault"):
        yield _finding(
            batch,
            func,
            "batch_faults() does not route faults through the staged "
            "FaultStage binding (fault); the vectorized fault path "
            "must orchestrate the staged sequence, not replace it",
        )
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = (call_name(node) or "").split(".")[-1]
            if callee in FAULT_PLACEMENT_CALLS:
                yield _finding(
                    batch,
                    node,
                    f"batch_faults() calls {callee}() directly; "
                    "placement belongs to the staged FaultStage "
                    "(error enrichment, fault accounting, repair "
                    "draining) and must not be inlined here",
                )
    installs = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (call_name(node) or "").split(".")[-1] == "MappingRecord"
    ]
    if installs:
        guarded = _guarded_node_ids(func, "bulk_proven")
        for node in installs:
            if id(node) not in guarded:
                yield _finding(
                    batch,
                    node,
                    "batch_faults() installs a PTE (MappingRecord) "
                    "outside the bulk_proven fence; the inlined bulk "
                    "fault path is only sound for policies whose "
                    "place() passed the AUDITED_PLACE identity proof",
                )
        if not _bulk_proof_intact(batch):
            yield _finding(
                batch,
                func,
                "batch_faults() has a bulk PTE-install path but "
                "bulk_proven is not derived from fault_batch_eligible "
                "and the AUDITED_PLACE table; the fence no longer "
                "proves the inlined placement matches the policy",
            )


def _check_epoch_routing(src: SourceFile) -> Iterator[Finding]:
    """``policy.on_epoch`` may fire only inside ``close_epoch``: the
    epoch semantics (remote ratio, index advance, page-stats reset)
    must stay single-sourced for both engines."""
    funcs = [
        node
        for node in src.nodes()
        if isinstance(node, ast.FunctionDef)
    ]
    covered = set()
    for func in funcs:
        if func.name == "close_epoch":
            for node in ast.walk(func):
                covered.add(id(node))
    for node in src.nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "on_epoch"
            and id(node) not in covered
        ):
            yield _finding(
                src,
                node,
                "policy.on_epoch called outside close_epoch(); both "
                "engines must share the single epoch-closing sequence "
                "(remote ratio, index advance, page-stats reset)",
            )


@register("RPR004", "engine-parity")
def check_engine_parity(project: Project) -> Iterator[Finding]:
    """The batched ``data_pass`` and ``translation_pass`` must visit
    their levels in the order of the staged ``DataStage.process`` and
    ``TranslationPath.access``, pass 1 must touch neither, and the
    engines must agree on the ring payload constant and route epochs
    through ``close_epoch`` (DESIGN.md §7)."""
    pipeline = project.source(PIPELINE_FILE)
    batch = project.source(BATCH_FILE)
    if pipeline is None or batch is None:
        # Single-engine project (or fixture): nothing to compare.
        return

    # --- reference sequence: the staged DataStage.process ---
    data_stage = _find_class(pipeline, "DataStage")
    staged_process = (
        _find_function(data_stage, "process") if data_stage else None
    )
    if staged_process is None:
        yield _finding(
            pipeline,
            pipeline.tree,
            "DataStage.process not found; the engine-parity reference "
            "sequence cannot be extracted",
        )
        return
    reference = _data_sequence(staged_process)

    # --- pass 2: the one batched data path ---
    data_pass = _find_function(batch, DATA_PASS_FUNC)
    if data_pass is None:
        yield _finding(
            batch,
            batch.tree,
            f"batched data pass {DATA_PASS_FUNC}() not found; the "
            "DESIGN.md §7 parity argument names one data-path "
            "implementation",
        )
    else:
        sequence = _data_sequence(data_pass)
        if sequence != reference:
            yield _finding(
                batch,
                data_pass,
                f"memory-path order of {DATA_PASS_FUNC}() is "
                f"{' -> '.join(sequence)} but the staged "
                f"DataStage.process order is {' -> '.join(reference)}; "
                "the engines have drifted (DESIGN.md §7 bit-identity)",
            )

    # --- pass 2: the one batched translation path ---
    translation_pass = _find_function(batch, TRANSLATION_PASS_FUNC)
    if translation_pass is None:
        yield _finding(
            batch,
            batch.tree,
            f"batched translation pass {TRANSLATION_PASS_FUNC}() not "
            "found; the DESIGN.md §7 parity argument names one "
            "translation implementation",
        )
    else:
        reference_levels = _translation_reference(project)
        levels = _translation_sequence(translation_pass)
        if levels != reference_levels:
            yield _finding(
                batch,
                translation_pass,
                f"translation order of {TRANSLATION_PASS_FUNC}() is "
                f"{' -> '.join(levels)} but TranslationPath.access "
                f"visits {' -> '.join(reference_levels)}; the translation "
                "pass has drifted from the staged path (DESIGN.md §7)",
            )

    # --- pass 1: faults and accounting, recording only ---
    for name in PASS1_FUNCS:
        func = _find_function(batch, name)
        if func is None:
            continue
        body = _body_nodes(func)
        touched = _tokens_in_order(body, DATA_CHANNELS)
        if touched:
            yield _finding(
                batch,
                func,
                f"{name}() touches data-path channels "
                f"({' -> '.join(_first_occurrence(touched))}); pass 1 "
                "only records physical addresses and homes, and the "
                f"data path belongs to {DATA_PASS_FUNC}() (DESIGN.md §7)",
            )
        translated = _tokens_in_order(body, PASS1_TRANSLATION_BAN)
        if translated:
            yield _finding(
                batch,
                func,
                f"{name}() touches translation channels "
                f"({' -> '.join(_first_occurrence(translated))}); pass 1 "
                "only records translation heads (unit_tuple, "
                "window_mask), and the TLBs, walks and Remote Trackers "
                f"belong to {TRANSLATION_PASS_FUNC}() (DESIGN.md §7)",
            )

    # --- ring payload constant ---
    staged_payload = _ring_payload_literal(staged_process)
    batch_payload = _module_int(batch.tree, "_TRANSFER_BYTES")
    if (
        staged_payload is not None
        and batch_payload is not None
        and staged_payload != batch_payload
    ):
        yield _finding(
            batch,
            batch.tree,
            f"ring transfer payload drifted: staged DataStage sends "
            f"{staged_payload} bytes, batched _TRANSFER_BYTES is "
            f"{batch_payload}",
        )

    # --- vectorized fault-path routing ---
    yield from _check_fault_batching(batch)

    # --- epoch routing, in both engine files ---
    yield from _check_epoch_routing(pipeline)
    yield from _check_epoch_routing(batch)
    batch_calls_close = any(
        isinstance(node, ast.Call)
        and (call_name(node) or "").split(".")[-1] == "close_epoch"
        for node in batch.nodes()
    )
    if not batch_calls_close:
        yield _finding(
            batch,
            batch.tree,
            "the batched engine never calls close_epoch(); epoch "
            "callbacks must go through the shared sequence in "
            "sim/pipeline.py",
        )
