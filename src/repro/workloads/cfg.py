"""Static program synthesis: modules, functions, basic blocks and call graph.

:class:`ProgramBuilder` turns a :class:`~repro.workloads.spec.WorkloadSpec`
into a :class:`Program`: a set of functions laid out in a 48-bit virtual
address space, each function a list of basic blocks terminated by a branch,
and a call graph connecting them.

The construction enforces the structural properties the paper attributes the
offset distribution to:

* conditional and unconditional jumps only target blocks of the *same*
  function (short offsets);
* calls target other functions -- mostly nearby functions of the same module,
  sometimes other application modules, occasionally shared-library modules
  mapped tens of megabytes (near libraries) or hundreds of gigabytes (the far
  library) away;
* the call graph is levelled (a function only calls functions at strictly
  deeper levels), which bounds dynamic call depth and guarantees the trace
  walk terminates;
* every function ends with a return.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.common.config import ISAStyle
from repro.common.errors import WorkloadError
from repro.workloads.spec import WorkloadSpec

# Base address of the far shared-library region (e.g. libc mapped high in the
# canonical user address space).  Calls into it produce the > 25-stored-bit
# offset tail (~1 % of dynamic branches in Figure 4).
FAR_LIBRARY_BASE = 0x0000_7F00_0000_0000

# Distribution of x86 instruction sizes (bytes); Arm64 is fixed at 4.
_X86_SIZES = (2, 3, 3, 4, 4, 4, 5, 6, 7)


class TerminatorKind(enum.Enum):
    """Kind of branch that terminates a basic block."""

    CONDITIONAL = "conditional"
    JUMP = "jump"
    CALL = "call"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"


@dataclass
class BasicBlock:
    """One basic block: plain instructions followed by a terminating branch."""

    index: int
    instruction_sizes: Tuple[int, ...]
    terminator: TerminatorKind
    terminator_size: int
    taken_block: int | None = None
    taken_probability: float = 0.0
    callee: int | None = None
    callee_candidates: Tuple[int, ...] = ()
    # Filled by the layout pass.
    start_pc: int = 0
    terminator_pc: int = 0

    @property
    def size_bytes(self) -> int:
        """Total size of the block in bytes."""
        return sum(self.instruction_sizes) + self.terminator_size

    @property
    def fall_through_pc(self) -> int:
        """Address of the first instruction after the block."""
        return self.start_pc + self.size_bytes


@dataclass
class Function:
    """A synthesized function: an entry point plus a list of basic blocks."""

    index: int
    name: str
    module: int
    level: int
    is_library: bool
    blocks: List[BasicBlock] = field(default_factory=list)
    entry_pc: int = 0

    @property
    def size_bytes(self) -> int:
        """Total code size of the function in bytes."""
        return sum(block.size_bytes for block in self.blocks)

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)


@dataclass
class Program:
    """A complete synthetic program plus its address-space layout."""

    spec: WorkloadSpec
    functions: List[Function]
    module_bases: List[int]
    dispatcher_index: int
    root_indices: List[int]
    root_weights: List[float]
    isa: ISAStyle

    @property
    def num_functions(self) -> int:
        """Total number of functions including the dispatcher."""
        return len(self.functions)

    def function(self, index: int) -> Function:
        """Return the function with the given global index."""
        return self.functions[index]

    def static_branch_count(self) -> int:
        """Number of static branch sites (one terminator per block)."""
        return sum(len(f.blocks) for f in self.functions)

    def code_footprint_bytes(self) -> int:
        """Total static code size across all functions."""
        return sum(f.size_bytes for f in self.functions)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`WorkloadError` on failure.

        Invariants checked:

        * every function's last block is a RETURN and interior blocks are not;
        * intra-function targets point at existing blocks, and unconditional
          jumps only go forward (so every loop has a conditional exit);
        * call targets exist and respect the level ordering for application
          callees (library functions are always callable);
        * every conditional/call block has a fall-through successor;
        * layout is sequential and non-overlapping within each function.
        """
        for function in self.functions:
            if not function.blocks:
                raise WorkloadError(f"{function.name}: function has no blocks")
            if function.blocks[-1].terminator is not TerminatorKind.RETURN:
                raise WorkloadError(f"{function.name}: last block must be a return")
            expected_pc = function.entry_pc
            for block in function.blocks:
                if block.start_pc != expected_pc:
                    raise WorkloadError(
                        f"{function.name}: block {block.index} not laid out sequentially"
                    )
                expected_pc = block.fall_through_pc
                kind = block.terminator
                if kind in (TerminatorKind.CONDITIONAL, TerminatorKind.JUMP):
                    if block.taken_block is None or not (
                        0 <= block.taken_block < len(function.blocks)
                    ):
                        raise WorkloadError(
                            f"{function.name}: block {block.index} targets a missing block"
                        )
                    if kind is TerminatorKind.JUMP and block.taken_block <= block.index:
                        raise WorkloadError(
                            f"{function.name}: unconditional jump in block {block.index} "
                            "must go forward"
                        )
                if kind in (TerminatorKind.CONDITIONAL, TerminatorKind.CALL,
                            TerminatorKind.INDIRECT_CALL):
                    if block.index == len(function.blocks) - 1:
                        raise WorkloadError(
                            f"{function.name}: block {block.index} needs a fall-through block"
                        )
                if kind is TerminatorKind.CALL:
                    self._check_callee(function, block.callee)
                if kind is TerminatorKind.INDIRECT_CALL:
                    if not block.callee_candidates:
                        raise WorkloadError(
                            f"{function.name}: indirect call without candidates"
                        )
                    for callee in block.callee_candidates:
                        self._check_callee(function, callee)

    def _check_callee(self, caller: Function, callee_index: int | None) -> None:
        if callee_index is None or not (0 <= callee_index < len(self.functions)):
            raise WorkloadError(f"{caller.name}: call targets a missing function")
        callee = self.functions[callee_index]
        if not callee.is_library and callee.level <= caller.level:
            raise WorkloadError(
                f"{caller.name} (level {caller.level}) calls {callee.name} "
                f"(level {callee.level}); call graph must be levelled"
            )


class ProgramBuilder:
    """Builds a :class:`Program` from a :class:`WorkloadSpec` deterministically."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)

    # -- public API -------------------------------------------------------

    def build(self) -> Program:
        """Synthesize the program: functions, call graph, layout, dispatcher."""
        spec = self.spec
        functions = self._create_functions()
        dispatcher_index = len(functions)
        roots = [f.index for f in functions if not f.is_library and f.level == 0]
        if not roots:
            raise WorkloadError(f"{spec.name}: no level-0 functions to dispatch to")
        self._rng.shuffle(roots)
        roots = sorted(roots[: spec.root_fan_out])
        dispatcher = self._create_dispatcher(dispatcher_index, roots)
        functions.append(dispatcher)

        self._generate_blocks(functions)
        self._resolve_calls(functions)
        module_bases = self._layout(functions)

        weights = [1.0 / ((rank + 1) ** spec.root_skew) for rank in range(len(roots))]
        program = Program(
            spec=spec,
            functions=functions,
            module_bases=module_bases,
            dispatcher_index=dispatcher_index,
            root_indices=roots,
            root_weights=weights,
            isa=spec.isa,
        )
        program.validate()
        return program

    # -- construction passes ----------------------------------------------

    def _create_functions(self) -> List[Function]:
        spec = self.spec
        functions: List[Function] = []
        index = 0
        app_levels = max(spec.call_levels - 1, 1)
        for module in range(spec.num_modules):
            for local in range(spec.functions_per_module):
                level = local % app_levels
                functions.append(
                    Function(
                        index=index,
                        name=f"{spec.name}.m{module}.f{local}",
                        module=module,
                        level=level,
                        is_library=False,
                    )
                )
                index += 1
        for lib in range(spec.num_library_modules):
            module = spec.num_modules + lib
            for local in range(spec.library_functions_per_module):
                functions.append(
                    Function(
                        index=index,
                        name=f"{spec.name}.lib{lib}.f{local}",
                        module=module,
                        level=spec.call_levels,
                        is_library=True,
                    )
                )
                index += 1
        return functions

    def _create_dispatcher(self, index: int, roots: Sequence[int]) -> Function:
        """The request-dispatch loop: indirectly calls a root, then repeats."""
        dispatcher = Function(
            index=index,
            name=f"{self.spec.name}.dispatcher",
            module=0,
            level=-1,
            is_library=False,
        )
        sizes = self._instruction_sizes(2)
        dispatcher.blocks = [
            BasicBlock(
                index=0,
                instruction_sizes=sizes,
                terminator=TerminatorKind.INDIRECT_CALL,
                terminator_size=self._one_size(),
                callee_candidates=tuple(roots),
            ),
            BasicBlock(
                index=1,
                instruction_sizes=self._instruction_sizes(1),
                terminator=TerminatorKind.CONDITIONAL,
                terminator_size=self._one_size(),
                taken_block=0,
                taken_probability=0.999,
            ),
            BasicBlock(
                index=2,
                instruction_sizes=(),
                terminator=TerminatorKind.RETURN,
                terminator_size=self._one_size(),
            ),
        ]
        return dispatcher

    def _generate_blocks(self, functions: List[Function]) -> None:
        spec = self.spec
        rng = self._rng
        max_app_level = max(spec.call_levels - 2, 0)
        for function in functions:
            if function.blocks:  # dispatcher already built
                continue
            # A function may only contain call sites when a valid callee is
            # guaranteed to exist: either a deeper application level or at
            # least one library module.
            can_call = not function.is_library and (
                spec.num_library_modules > 0 or function.level < max_app_level
            )
            num_blocks = rng.randint(spec.min_blocks_per_function, spec.max_blocks_per_function)
            blocks: List[BasicBlock] = []
            for block_index in range(num_blocks):
                plain = rng.randint(spec.min_block_instructions, spec.max_block_instructions)
                sizes = self._instruction_sizes(plain)
                if block_index == num_blocks - 1:
                    blocks.append(
                        BasicBlock(
                            index=block_index,
                            instruction_sizes=sizes,
                            terminator=TerminatorKind.RETURN,
                            terminator_size=self._one_size(),
                        )
                    )
                    continue
                blocks.append(
                    self._interior_block(function, block_index, num_blocks, sizes, can_call)
                )
            function.blocks = blocks

    def _interior_block(
        self,
        function: Function,
        block_index: int,
        num_blocks: int,
        sizes: Tuple[int, ...],
        can_call: bool,
    ) -> BasicBlock:
        spec = self.spec
        rng = self._rng
        roll = rng.random()
        conditional_cut = spec.conditional_fraction
        call_cut = conditional_cut + spec.call_fraction
        jump_cut = call_cut + spec.jump_fraction
        indirect_cut = jump_cut + spec.indirect_fraction
        # Functions without a valid callee (library functions, or deepest-level
        # functions in programs without libraries) turn their call and indirect
        # call sites into conditional branches to keep the dynamic mix sane.
        in_call_range = conditional_cut <= roll < call_cut or jump_cut <= roll < indirect_cut
        if not can_call and in_call_range:
            roll = rng.random() * conditional_cut

        if roll < conditional_cut:
            backward = block_index > 0 and rng.random() < spec.loop_branch_fraction
            if backward:
                target = rng.randint(max(0, block_index - 3), block_index - 1)
                probability = min(max(spec.loop_taken_probability + rng.uniform(-0.03, 0.03), 0.0), 0.99)
            else:
                target = rng.randint(block_index + 1, num_blocks - 1)
                probability = self._forward_bias()
            return BasicBlock(
                index=block_index,
                instruction_sizes=sizes,
                terminator=TerminatorKind.CONDITIONAL,
                terminator_size=self._one_size(),
                taken_block=target,
                taken_probability=probability,
            )
        if roll < call_cut:
            return BasicBlock(
                index=block_index,
                instruction_sizes=sizes,
                terminator=TerminatorKind.CALL,
                terminator_size=self._one_size(),
            )
        if roll < jump_cut and block_index + 1 < num_blocks - 1:
            target = rng.randint(block_index + 1, num_blocks - 1)
            return BasicBlock(
                index=block_index,
                instruction_sizes=sizes,
                terminator=TerminatorKind.JUMP,
                terminator_size=self._one_size(),
                taken_block=target,
            )
        if roll < indirect_cut:
            return BasicBlock(
                index=block_index,
                instruction_sizes=sizes,
                terminator=TerminatorKind.INDIRECT_CALL,
                terminator_size=self._one_size(),
            )
        # Fallback: a forward conditional branch.
        target = rng.randint(block_index + 1, num_blocks - 1)
        return BasicBlock(
            index=block_index,
            instruction_sizes=sizes,
            terminator=TerminatorKind.CONDITIONAL,
            terminator_size=self._one_size(),
            taken_block=target,
            taken_probability=self._forward_bias(),
        )

    def _forward_bias(self) -> float:
        """Per-site taken probability of a forward conditional branch.

        Most branch sites are strongly biased towards one direction (real
        conditional branches are highly predictable); a minority are weakly
        biased around the spec's ``forward_taken_probability``.
        """
        spec = self.spec
        rng = self._rng
        if rng.random() < spec.predictable_branch_fraction:
            return rng.choice((0.01, 0.02, 0.05, 0.95, 0.98, 0.99))
        center = spec.forward_taken_probability
        return min(max(center + rng.uniform(-0.15, 0.15), 0.02), 0.98)

    def _resolve_calls(self, functions: List[Function]) -> None:
        """Second pass: pick callees for every direct and indirect call site."""
        spec = self.spec
        rng = self._rng
        by_module_level: Dict[Tuple[int, int], List[Function]] = {}
        library_functions: List[Function] = []
        far_library_functions: List[Function] = []
        far_module = spec.num_modules + spec.num_library_modules - 1
        for function in functions:
            if function.is_library:
                if spec.num_library_modules > 1 and function.module == far_module:
                    far_library_functions.append(function)
                else:
                    library_functions.append(function)
            elif function.level >= 0:
                by_module_level.setdefault((function.module, function.level), []).append(function)
        # Function indices of each pool, ascending (functions are visited in
        # index order): the neighbour class bisects them for its anchor.
        self._pool_indices = {
            key: [function.index for function in pool] for key, pool in by_module_level.items()
        }
        if not library_functions:
            library_functions = far_library_functions

        max_app_level = max(spec.call_levels - 2, 0)
        for function in functions:
            for block in function.blocks:
                if block.terminator is TerminatorKind.CALL:
                    block.callee = self._pick_callee(
                        function, by_module_level, library_functions,
                        far_library_functions, max_app_level,
                    )
                elif block.terminator is TerminatorKind.INDIRECT_CALL and not block.callee_candidates:
                    fan_out = rng.randint(2, 6)
                    candidates = [
                        self._pick_callee(
                            function, by_module_level, library_functions,
                            far_library_functions, max_app_level,
                        )
                        for _ in range(fan_out)
                    ]
                    block.callee_candidates = tuple(sorted(set(candidates)))

    def _pick_callee(
        self,
        caller: Function,
        by_module_level: Dict[Tuple[int, int], List[Function]],
        library_functions: List[Function],
        far_library_functions: List[Function],
        max_app_level: int,
    ) -> int:
        """Pick one callee for a call site according to the distance classes.

        The five classes (neighbour / same-module / cross-module / library /
        far-library) correspond to increasing branch-to-target distances and
        therefore to the bands of the offset distribution in Figure 4.  The
        levelled call-graph constraint (callee level > caller level) is always
        respected for application callees.
        """
        spec = self.spec
        rng = self._rng
        deeper_levels = [
            level for level in range(caller.level + 1, max_app_level + 1)
            if (caller.module, level) in by_module_level
        ]

        roll = rng.random()
        neighbor_cut = spec.neighbor_call_fraction
        module_cut = neighbor_cut + spec.module_call_fraction
        cross_cut = module_cut + spec.cross_module_call_fraction
        library_cut = cross_cut + spec.library_call_fraction
        far_cut = library_cut + spec.far_library_call_fraction

        wants_far = library_cut <= roll < far_cut
        wants_library = cross_cut <= roll < library_cut
        if wants_far and far_library_functions:
            return rng.choice(far_library_functions).index
        if (wants_library or wants_far or not deeper_levels) and library_functions:
            return rng.choice(library_functions).index
        if not deeper_levels:
            if far_library_functions:
                return rng.choice(far_library_functions).index
            raise WorkloadError(
                f"{caller.name}: no valid callee (no deeper levels and no libraries)"
            )

        module = caller.module
        if module_cut <= roll < cross_cut and spec.num_modules > 1:
            choices = [m for m in range(spec.num_modules) if m != caller.module]
            module = rng.choice(choices)
        level = rng.choice(deeper_levels)
        key = (module, level) if (module, level) in by_module_level else (caller.module, level)
        pool = by_module_level[key]

        if roll < neighbor_cut and len(pool) > 2:
            # Neighbour class: callee laid out close to the caller, producing
            # short cross-function distances (the 7-12 bit band).
            anchor = _nearest(self._pool_indices[key], caller.index)
            lo = max(0, anchor - spec.neighbor_window)
            hi = min(len(pool), anchor + spec.neighbor_window + 1)
            return rng.choice(pool[lo:hi]).index
        return rng.choice(pool).index

    def _layout(self, functions: List[Function]) -> List[int]:
        """Assign addresses: application modules first, then library modules."""
        spec = self.spec
        num_modules = spec.num_modules + spec.num_library_modules
        by_module: Dict[int, List[Function]] = {m: [] for m in range(num_modules)}
        for function in functions:
            by_module[function.module].append(function)

        module_bases: List[int] = []
        cursor = spec.base_address
        app_end = spec.base_address
        for module in range(num_modules):
            if module < spec.num_modules:
                base = cursor
            elif module == num_modules - 1 and spec.num_library_modules > 1:
                # The far library lives in the high shared-library region.
                base = FAR_LIBRARY_BASE
            else:
                # Near libraries sit a fixed gap beyond the application image.
                offset = (module - spec.num_modules) * (spec.library_gap_bytes // 2)
                base = _align(app_end + spec.library_gap_bytes + offset, 4096)
            module_bases.append(base)
            pc = base
            for function in by_module[module]:
                function.entry_pc = pc
                for block in function.blocks:
                    block.start_pc = pc
                    block.terminator_pc = pc + sum(block.instruction_sizes)
                    pc += block.size_bytes
                pc = _align(pc, 16)
            if module < spec.num_modules:
                app_end = max(app_end, pc)
                cursor = _align(pc + spec.module_gap_bytes, 4096)
        return module_bases

    # -- helpers ----------------------------------------------------------

    def _one_size(self) -> int:
        """Size of a single instruction for the configured ISA."""
        if self.spec.isa is ISAStyle.ARM64:
            return 4
        return self._rng.choice(_X86_SIZES)

    def _instruction_sizes(self, count: int) -> Tuple[int, ...]:
        """Sizes of ``count`` plain instructions for the configured ISA."""
        if self.spec.isa is ISAStyle.ARM64:
            return (4,) * count
        return tuple(self._rng.choice(_X86_SIZES) for _ in range(count))


def _nearest(ascending: Sequence[int], value: int) -> int:
    """Position of the element of ``ascending`` closest to ``value``.

    A tie goes to the lower position, as a ``min`` scan would pick it.
    """
    position = bisect_left(ascending, value)
    if position == len(ascending) or (
        position and value - ascending[position - 1] <= ascending[position] - value
    ):
        return position - 1
    return position


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def build_program(spec: WorkloadSpec) -> Program:
    """Convenience wrapper: build and validate a program from a spec."""
    return ProgramBuilder(spec).build()
