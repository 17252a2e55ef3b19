//! Object store: the compile/link memoization every context uses.
//!
//! Every [`crate::EvalContext`] compiles and links through an
//! [`ObjectStore`], the analogue of the build-system object reuse the
//! paper's prototype gets from `xiar`/`xild`. By default the store is
//! private to the context and keyed positionally (one context fixes
//! the compiler, program and architecture). Contexts that evaluate the
//! same work side by side — the daemon's tenants, which run one suite
//! workload under several seeds — share one store instead, keyed by
//! content fingerprints so distinct programs, inputs, compilers, or
//! architectures can never collide:
//!
//! * objects by `(object scope, CV digest)` — the scope folds the
//!   compiler fingerprint and a module fingerprint that hashes the
//!   module's content (features, idiosyncrasy seed, shared structs),
//!   not just its slot index, because different workloads and inputs
//!   reuse slot ids;
//! * links by `(link fingerprint, per-module CV digests)` — the link
//!   fingerprint hashes the whole `ProgramIr`, the architecture, and
//!   the compiler fingerprint, since `link` reads all three.
//!
//! Fingerprints hash values field by field, in declaration order (see
//! `FieldHasher`): no text encoding is built. Each struct is
//! destructured without `..`, so a field added to any of them fails to
//! compile here until it is hashed.
//!
//! Both layers are [`ShardedLru`]s under one [`CacheCapacity`]:
//! `Unbounded` by default, which never evicts and keeps no recency
//! index, or an `Entries` budget that evicts least recently used
//! first. Compilation and linking are pure functions of those keys, so
//! sharing (like eviction) is result-invariant: a store hit returns a
//! value bit-identical to what the borrowing context would have
//! computed itself. Only the *fault quarantine* stays per-context —
//! fault models are context configuration and must not leak between
//! tenants. Sharing is proved result-invariant by the
//! `cache_equivalence` suite against the golden canonical digests.

use ft_compiler::lru::{CacheCapacity, LruStats, ShardedLru};
use ft_compiler::{
    CallEdge, CompiledModule, Compiler, LoopFeatures, MemStride, Module, ModuleKind, Personality,
    ProgramIr, Target,
};
use ft_flags::rng::mix;
use ft_flags::{FlagDomain, FlagSpace, FlagSpec, FlagValue};
use ft_machine::{Architecture, LinkedProgram};
use std::sync::Arc;

/// Fingerprint of a compiler configuration: personality, target, and
/// flag space. Two compilers with equal fingerprints generate
/// identical code for any `(module, CV)` pair.
pub fn compiler_fingerprint(compiler: &Compiler) -> u64 {
    config_fingerprint(compiler.personality(), compiler.target(), compiler.space())
}

/// [`compiler_fingerprint`] of the parts a [`Compiler`] is built from.
fn config_fingerprint(personality: Personality, target: Target, space: &FlagSpace) -> u64 {
    let mut h = FieldHasher::default();
    h.personality(personality);
    h.target(target);
    h.space(space);
    h.finish()
}

/// Content fingerprint of one module: everything `compile_module`
/// reads (slot id, name, kind, features, idiosyncrasy, shared
/// structs).
pub fn module_fingerprint(module: &Module) -> u64 {
    let mut h = FieldHasher::default();
    h.module(module);
    h.finish()
}

/// Object-layer scope of one module under one compiler: the two
/// fingerprints folded into one word, so an object key is two words.
/// For a fixed compiler, distinct module fingerprints get distinct
/// scopes (`mix` is a bijection).
pub fn object_scope(compiler_fp: u64, module_fp: u64) -> u64 {
    mix(compiler_fp ^ module_fp.rotate_left(32))
}

/// Fingerprint of a whole link configuration: the outlined program,
/// the architecture, and the compiler. `link` is a pure function of
/// these plus the per-module CV digests.
pub fn link_fingerprint(ir: &ProgramIr, arch: &Architecture, compiler_fp: u64) -> u64 {
    let mut h = FieldHasher::default();
    h.program(ir);
    h.architecture(arch);
    h.word(compiler_fp);
    h.finish()
}

/// The field-order hasher behind the fingerprints. Every word folds
/// through [`mix`] (a bijection, so two equal-length word sequences
/// that differ anywhere end in different states); an `f64` is hashed
/// by its bits; every string and list is prefixed by its length, and
/// every enum variant by an explicit tag, so no two values share an
/// encoding.
#[derive(Default)]
struct FieldHasher(u64);

impl FieldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn word(&mut self, w: u64) {
        self.0 = mix(self.0 ^ w);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.word(u64::from(v));
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn personality(&mut self, p: Personality) {
        self.word(match p {
            Personality::IccLike => 0,
            Personality::GccLike => 1,
        });
    }

    fn target(&mut self, t: Target) {
        let Target {
            name,
            max_vector_bits,
            fma,
            proc_flag,
        } = t;
        self.str(name);
        self.word(u64::from(max_vector_bits));
        self.bool(fma);
        self.str(proc_flag);
    }

    fn space(&mut self, space: &FlagSpace) {
        self.str(space.name());
        self.len(space.flags().len());
        for flag in space.flags() {
            self.flag(flag);
        }
        self.len(space.fixed_flags().len());
        for fixed in space.fixed_flags() {
            self.str(fixed);
        }
    }

    fn flag(&mut self, flag: &FlagSpec) {
        let FlagSpec {
            name,
            domain,
            values,
            help,
        } = flag;
        self.str(name);
        self.word(match domain {
            FlagDomain::OptLevel => 0,
            FlagDomain::Vectorization => 1,
            FlagDomain::Unrolling => 2,
            FlagDomain::Ipo => 3,
            FlagDomain::Inlining => 4,
            FlagDomain::StreamingStores => 5,
            FlagDomain::Aliasing => 6,
            FlagDomain::Prefetch => 7,
            FlagDomain::Layout => 8,
            FlagDomain::LoopRestructure => 9,
            FlagDomain::Codegen => 10,
            FlagDomain::Scalar => 11,
        });
        self.len(values.len());
        for value in values {
            match value {
                FlagValue::Default => self.word(0),
                FlagValue::On => self.word(1),
                FlagValue::Off => self.word(2),
                FlagValue::Int(v) => {
                    self.word(3);
                    self.word(i64::from(*v) as u64);
                }
                FlagValue::Named(s) => {
                    self.word(4);
                    self.str(s);
                }
            }
        }
        self.str(help);
    }

    fn module(&mut self, module: &Module) {
        let Module {
            id,
            name,
            kind,
            shared_structs,
        } = module;
        self.len(*id);
        self.str(name);
        match kind {
            ModuleKind::HotLoop(features) => {
                self.word(0);
                self.features(features);
            }
            ModuleKind::NonLoop {
                seconds_per_step,
                code_bytes,
            } => {
                self.word(1);
                self.f64(*seconds_per_step);
                self.f64(*code_bytes);
            }
        }
        self.len(shared_structs.len());
        for s in shared_structs {
            self.word(u64::from(*s));
        }
    }

    fn features(&mut self, f: &LoopFeatures) {
        let LoopFeatures {
            trip_count,
            invocations_per_step,
            ops_per_iter,
            fp_fraction,
            bytes_per_iter,
            write_fraction,
            stride,
            divergence,
            ilp,
            carried_dependence,
            reduction,
            working_set_mb,
            streaming,
            calls_out,
            base_code_bytes,
            parallel_fraction,
            response_seed,
        } = f;
        self.f64(*trip_count);
        self.f64(*invocations_per_step);
        self.f64(*ops_per_iter);
        self.f64(*fp_fraction);
        self.f64(*bytes_per_iter);
        self.f64(*write_fraction);
        match stride {
            MemStride::Unit => self.word(0),
            MemStride::Strided(k) => {
                self.word(1);
                self.word(u64::from(*k));
            }
            MemStride::Indirect => self.word(2),
        }
        self.f64(*divergence);
        self.f64(*ilp);
        self.bool(*carried_dependence);
        self.bool(*reduction);
        self.f64(*working_set_mb);
        self.f64(*streaming);
        self.f64(*calls_out);
        self.f64(*base_code_bytes);
        self.f64(*parallel_fraction);
        self.word(*response_seed);
    }

    fn program(&mut self, ir: &ProgramIr) {
        let ProgramIr {
            name,
            modules,
            call_edges,
            pgo_hostile,
        } = ir;
        self.str(name);
        self.len(modules.len());
        for module in modules {
            self.module(module);
        }
        self.len(call_edges.len());
        for edge in call_edges {
            let CallEdge {
                from,
                to,
                calls_per_step,
            } = edge;
            self.len(*from);
            self.len(*to);
            self.f64(*calls_per_step);
        }
        self.bool(*pgo_hostile);
    }

    fn architecture(&mut self, arch: &Architecture) {
        let Architecture {
            name,
            processor,
            target,
            sockets,
            numa_nodes,
            cores_per_socket,
            threads_per_core,
            freq_ghz,
            issue_width,
            simd_eff_128,
            simd_eff_256,
            simd_eff_512,
            avx512_freq_factor,
            icache_kb,
            llc_mb,
            mem_bw_gbs,
            memory_gb,
            omp_threads,
            scalar_speed,
        } = arch;
        self.str(name);
        self.str(processor);
        self.target(*target);
        for count in [sockets, numa_nodes, cores_per_socket, threads_per_core] {
            self.word(u64::from(*count));
        }
        for v in [
            freq_ghz,
            issue_width,
            simd_eff_128,
            simd_eff_256,
            simd_eff_512,
            avx512_freq_factor,
            icache_kb,
            llc_mb,
            mem_bw_gbs,
            memory_gb,
        ] {
            self.f64(*v);
        }
        self.word(u64::from(*omp_threads));
        self.f64(*scalar_speed);
    }
}

/// A compile/link store, optionally entry-bounded, private to one
/// [`crate::EvalContext`] or shared by many (see module docs).
pub struct ObjectStore {
    objects: ShardedLru<(u64, u64), CompiledModule>,
    links: ShardedLru<(u64, Vec<u64>), LinkedProgram>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectStore {
    /// An unbounded store.
    pub fn new() -> Self {
        Self::with_capacity(CacheCapacity::Unbounded)
    }

    /// A store whose object and link layers each evict LRU-first past
    /// `capacity`.
    pub fn with_capacity(capacity: CacheCapacity) -> Self {
        ObjectStore {
            objects: ShardedLru::new(capacity),
            links: ShardedLru::new(capacity),
        }
    }

    /// The configured capacity (same for both layers).
    pub fn capacity(&self) -> CacheCapacity {
        self.objects.capacity()
    }

    /// Looks up (or computes, single-flight) one compiled object of
    /// the module `scope` names (see [`object_scope`]). Returns the
    /// shared object and whether this was a hit.
    pub fn object(
        &self,
        scope: u64,
        cv_digest: u64,
        compute: impl FnOnce() -> CompiledModule,
    ) -> (Arc<CompiledModule>, bool) {
        self.objects.get_or_compute((scope, cv_digest), compute)
    }

    /// Looks up (or computes, single-flight) one linked program.
    /// Returns the shared program and whether this was a hit.
    pub fn link(
        &self,
        link_fp: u64,
        digests: &[u64],
        compute: impl FnOnce() -> LinkedProgram,
    ) -> (Arc<LinkedProgram>, bool) {
        let mut key = Vec::with_capacity(digests.len());
        key.extend_from_slice(digests);
        self.links.get_or_compute((link_fp, key), compute)
    }

    /// Counter snapshot of the object layer.
    pub fn object_stats(&self) -> LruStats {
        self.objects.stats()
    }

    /// Counter snapshot of the link layer.
    pub fn link_stats(&self) -> LruStats {
        self.links.stats()
    }

    /// Resident entries `(objects, links)`.
    pub fn len(&self) -> (usize, usize) {
        (self.objects.resident(), self.links.resident())
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("capacity", &self.capacity())
            .field("objects", &self.object_stats())
            .field("links", &self.link_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_flags::rng::rng_for;
    use ft_flags::Cv;
    use ft_machine::link;

    /// A `j`-loop program with shared structs and one call edge, so
    /// links carry layout conflicts and ABI costs.
    fn program(j: usize) -> ProgramIr {
        let mut modules: Vec<Module> = (0..j)
            .map(|i| {
                let mut f = LoopFeatures::synthetic(i as u64 * 31 + 5);
                f.base_code_bytes = 2500.0;
                Module::hot_loop(i, &format!("k{i}"), f, &[1, (i % 3) as u32 + 2])
            })
            .collect();
        modules.push(Module::non_loop(j, 0.3, 5.0e4));
        let edge = CallEdge {
            from: 0,
            to: 1,
            calls_per_step: 1e5,
        };
        ProgramIr::new("p", modules, vec![edge])
    }

    fn digests(assignment: &[Cv]) -> Vec<u64> {
        assignment.iter().map(Cv::digest).collect()
    }

    #[test]
    fn compiler_fingerprint_separates_configurations() {
        let icc = Compiler::icc(Target::avx2_256());
        let icc2 = Compiler::icc(Target::avx2_256());
        let gcc = Compiler::gcc(Target::avx2_256());
        let icc_sse = Compiler::icc(Target::sse_128());
        assert_eq!(compiler_fingerprint(&icc), compiler_fingerprint(&icc2));
        assert_ne!(compiler_fingerprint(&icc), compiler_fingerprint(&gcc));
        assert_ne!(compiler_fingerprint(&icc), compiler_fingerprint(&icc_sse));
    }

    #[test]
    fn module_fingerprint_is_content_addressed() {
        let a = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let same = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let other_features = Module::hot_loop(0, "k", LoopFeatures::synthetic(6), &[]);
        let other_slot = Module::hot_loop(1, "k", LoopFeatures::synthetic(5), &[]);
        assert_eq!(module_fingerprint(&a), module_fingerprint(&same));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&other_features));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&other_slot));
    }

    /// One named single-field edit of a fingerprinted value.
    type Edit<T> = (&'static str, fn(&mut T));

    /// Asserts that each edit of `base` moves its fingerprint, and that
    /// an independently built equal value keeps it.
    fn assert_each_edit_moves<T: Clone>(
        base: &T,
        same: &T,
        fp: impl Fn(&T) -> u64,
        edits: &[Edit<T>],
    ) {
        let reference = fp(base);
        assert_eq!(fp(same), reference, "equal values must fingerprint equal");
        for (field, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(
                fp(&edited),
                reference,
                "editing {field} must move the fingerprint"
            );
        }
    }

    /// `FlagSpace::icc()` with one edit made to its JSON text: the
    /// space's fields are private, so a variant is built through serde.
    fn edited_icc(from: &str, to: &str) -> FlagSpace {
        let json = serde_json::to_string(&FlagSpace::icc()).unwrap();
        assert!(json.contains(from), "`{from}` not in {json}");
        serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn compiler_fingerprint_covers_every_field() {
        let target = Target::avx2_256();
        let icc = compiler_fingerprint(&Compiler::icc(target));
        let fp = |t: &Target| config_fingerprint(Personality::IccLike, *t, &FlagSpace::icc());
        assert_eq!(fp(&target), icc);
        assert_each_edit_moves(
            &target,
            &Target::avx2_256(),
            fp,
            &[
                ("Target::name", |t| t.name = "avx2-other"),
                ("Target::max_vector_bits", |t| t.max_vector_bits += 1),
                ("Target::fma", |t| t.fma = !t.fma),
                ("Target::proc_flag", |t| t.proc_flag = "-xHost"),
            ],
        );
        assert_ne!(
            config_fingerprint(Personality::GccLike, target, &FlagSpace::icc()),
            icc,
            "Personality"
        );
        let space_fp = |space: &FlagSpace| config_fingerprint(Personality::IccLike, target, space);
        assert_eq!(space_fp(&edited_icc("icc", "icc")), icc);
        for (field, from, to) in [
            ("FlagSpace::name", r#""name":"icc""#, r#""name":"icx""#),
            ("FlagSpec::name", r#""name":"vec""#, r#""name":"vex""#),
            ("FlagSpec::domain", r#""OptLevel""#, r#""Codegen""#),
            ("FlagSpec::values (Int)", r#"{"Int":100}"#, r#"{"Int":101}"#),
            ("FlagSpec::values (Named)", r#""256"}"#, r#""512"}"#),
            (
                "FlagSpec::values (order)",
                r#"["On","Off"]"#,
                r#"["Off","On"]"#,
            ),
            (
                "FlagSpec::values (Default)",
                r#"["Default","On"]"#,
                r#"["On","On"]"#,
            ),
            (
                "FlagSpec::values (variant)",
                r#"{"Named":"3"}"#,
                r#"{"Int":3}"#,
            ),
            ("FlagSpec::values (length)", r#",{"Int":75}]"#, "]"),
            ("FlagSpec::help", "optimization level", "optimisation level"),
            (
                "fixed flags",
                r#""-fp-model source""#,
                r#""-fp-model fast""#,
            ),
            ("fixed flags (length)", r#","-fp-model source"]"#, "]"),
        ] {
            assert_ne!(space_fp(&edited_icc(from, to)), icc, "editing {field}");
        }
    }

    fn features(m: &mut Module) -> &mut LoopFeatures {
        match &mut m.kind {
            ModuleKind::HotLoop(f) => f,
            ModuleKind::NonLoop { .. } => unreachable!("a hot-loop fixture"),
        }
    }

    #[test]
    fn module_fingerprint_covers_every_field() {
        let build = || Module::hot_loop(3, "k", LoopFeatures::synthetic(5), &[1, 2]);
        assert_each_edit_moves(
            &build(),
            &build(),
            module_fingerprint,
            &[
                ("Module::id", |m| m.id += 1),
                ("Module::name", |m| m.name.push('x')),
                // Packs to the same words as "k"; only the length differs.
                ("Module::name (length)", |m| m.name.push('\0')),
                ("Module::kind", |m| {
                    m.kind = Module::non_loop(3, 0.3, 5.0e4).kind
                }),
                ("Module::shared_structs (value)", |m| {
                    m.shared_structs[1] = 7
                }),
                ("Module::shared_structs (length)", |m| {
                    m.shared_structs.push(9)
                }),
                ("trip_count", |m| features(m).trip_count += 1.0),
                ("invocations_per_step", |m| {
                    features(m).invocations_per_step += 1.0
                }),
                ("ops_per_iter", |m| features(m).ops_per_iter += 1.0),
                ("fp_fraction", |m| features(m).fp_fraction += 0.1),
                ("bytes_per_iter", |m| features(m).bytes_per_iter += 1.0),
                ("write_fraction", |m| features(m).write_fraction += 0.1),
                ("stride (Strided)", |m| {
                    features(m).stride = MemStride::Strided(2)
                }),
                ("stride (Indirect)", |m| {
                    features(m).stride = MemStride::Indirect
                }),
                ("divergence", |m| features(m).divergence += 0.1),
                ("ilp", |m| features(m).ilp += 1.0),
                ("carried_dependence", |m| {
                    features(m).carried_dependence = !features(m).carried_dependence
                }),
                ("reduction", |m| {
                    features(m).reduction = !features(m).reduction
                }),
                ("working_set_mb", |m| features(m).working_set_mb += 1.0),
                ("streaming", |m| features(m).streaming += 0.1),
                ("calls_out", |m| features(m).calls_out += 1.0),
                ("base_code_bytes", |m| features(m).base_code_bytes += 1.0),
                ("parallel_fraction", |m| {
                    features(m).parallel_fraction -= 0.1
                }),
                ("response_seed", |m| features(m).response_seed += 1),
            ],
        );
        let strided = |k| {
            let mut m = build();
            features(&mut m).stride = MemStride::Strided(k);
            module_fingerprint(&m)
        };
        assert_ne!(strided(2), strided(3), "MemStride::Strided's stride");
        let non_loop = || Module::non_loop(3, 0.3, 5.0e4);
        assert_each_edit_moves(
            &non_loop(),
            &non_loop(),
            module_fingerprint,
            &[
                ("NonLoop::seconds_per_step", |m| {
                    m.kind = Module::non_loop(3, 0.4, 5.0e4).kind
                }),
                ("NonLoop::code_bytes", |m| {
                    m.kind = Module::non_loop(3, 0.3, 6.0e4).kind
                }),
            ],
        );
    }

    #[test]
    fn link_fingerprint_covers_every_field() {
        let compiler_fp = compiler_fingerprint(&Compiler::icc(Target::avx2_256()));
        let arch = Architecture::broadwell();
        assert_each_edit_moves(
            &program(4),
            &program(4),
            |ir| link_fingerprint(ir, &arch, compiler_fp),
            &[
                ("ProgramIr::name", |ir| ir.name.push('x')),
                ("ProgramIr::modules", |ir| {
                    features(&mut ir.modules[1]).ilp += 1.0
                }),
                ("ProgramIr::modules (length)", |ir| {
                    ir.modules.pop();
                }),
                ("CallEdge::from", |ir| ir.call_edges[0].from = 2),
                ("CallEdge::to", |ir| ir.call_edges[0].to = 2),
                ("CallEdge::calls_per_step", |ir| {
                    ir.call_edges[0].calls_per_step += 1.0
                }),
                ("ProgramIr::call_edges (length)", |ir| ir.call_edges.clear()),
                ("ProgramIr::pgo_hostile", |ir| {
                    ir.pgo_hostile = !ir.pgo_hostile
                }),
            ],
        );
        let ir = program(4);
        assert_each_edit_moves(
            &arch,
            &Architecture::broadwell(),
            |a| link_fingerprint(&ir, a, compiler_fp),
            &[
                ("name", |a| a.name = "Broadwell-other"),
                ("processor", |a| a.processor = "other"),
                ("target", |a| a.target.fma = !a.target.fma),
                ("sockets", |a| a.sockets += 1),
                ("numa_nodes", |a| a.numa_nodes += 1),
                ("cores_per_socket", |a| a.cores_per_socket += 1),
                ("threads_per_core", |a| a.threads_per_core += 1),
                ("freq_ghz", |a| a.freq_ghz += 0.1),
                ("issue_width", |a| a.issue_width += 0.1),
                ("simd_eff_128", |a| a.simd_eff_128 += 0.01),
                ("simd_eff_256", |a| a.simd_eff_256 += 0.01),
                ("simd_eff_512", |a| a.simd_eff_512 += 0.01),
                ("avx512_freq_factor", |a| a.avx512_freq_factor -= 0.1),
                ("icache_kb", |a| a.icache_kb += 1.0),
                ("llc_mb", |a| a.llc_mb += 1.0),
                ("mem_bw_gbs", |a| a.mem_bw_gbs += 1.0),
                ("memory_gb", |a| a.memory_gb += 1.0),
                ("omp_threads", |a| a.omp_threads += 1),
                ("scalar_speed", |a| a.scalar_speed += 0.01),
            ],
        );
        assert_ne!(
            link_fingerprint(&ir, &arch, compiler_fp),
            link_fingerprint(
                &ir,
                &arch,
                compiler_fingerprint(&Compiler::gcc(Target::avx2_256()))
            ),
            "the compiler fingerprint"
        );
    }

    #[test]
    fn object_scope_separates_compilers_and_modules() {
        let icc = compiler_fingerprint(&Compiler::icc(Target::avx2_256()));
        let gcc = compiler_fingerprint(&Compiler::gcc(Target::avx2_256()));
        let m0 = module_fingerprint(&Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]));
        let m1 = module_fingerprint(&Module::hot_loop(1, "k", LoopFeatures::synthetic(5), &[]));
        assert_ne!(object_scope(icc, m0), object_scope(gcc, m0));
        assert_ne!(object_scope(icc, m0), object_scope(icc, m1));
    }

    #[test]
    fn store_shares_objects_across_equal_keys() {
        let c = Compiler::icc(Target::avx2_256());
        let m = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let cv = c.space().sample(&mut rng_for(1, "store"));
        let store = ObjectStore::new();
        let scope = object_scope(compiler_fingerprint(&c), module_fingerprint(&m));
        let (a, hit_a) = store.object(scope, cv.digest(), || c.compile_module(&m, &cv));
        let (b, hit_b) = store.object(scope, cv.digest(), || {
            panic!("hit must not recompile");
        });
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.object_stats().computes, 1);
    }

    #[test]
    fn bounded_store_evicts_and_recomputes_identically() {
        let c = Compiler::icc(Target::avx2_256());
        let cv = c.space().sample(&mut rng_for(2, "store"));
        let store = ObjectStore::with_capacity(CacheCapacity::Entries(1));
        let cfp = compiler_fingerprint(&c);
        let modules: Vec<Module> = (0..40)
            .map(|i| Module::hot_loop(i, &format!("k{i}"), LoopFeatures::synthetic(i as u64), &[]))
            .collect();
        let objects = || -> Vec<Arc<CompiledModule>> {
            modules
                .iter()
                .map(|m| {
                    let scope = object_scope(cfp, module_fingerprint(m));
                    store
                        .object(scope, cv.digest(), || c.compile_module(m, &cv))
                        .0
                })
                .collect()
        };
        let first = objects();
        assert_eq!(first, objects());
        assert!(store.object_stats().evictions > 0);
    }

    // The link layer is keyed here as a private context keys it: link
    // fingerprint 0, since one context fixes program, arch and compiler.

    #[test]
    fn link_hits_share_the_program() {
        let ir = program(8);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let mut rng = rng_for(12, "lc");
        let assignment: Vec<Cv> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
        let key = digests(&assignment);
        let store = ObjectStore::new();
        let (a, hit_a) = store.link(0, &key, || {
            link(c.compile_mixed(&ir, &assignment), &ir, &arch)
        });
        let (b, hit_b) = store.link(0, &key, || panic!("hit must not recompile"));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must be a pointer bump");
        assert_eq!(*a, link(c.compile_mixed(&ir, &assignment), &ir, &arch));
        let s = store.link_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(store.len(), (0, 1));
    }

    #[test]
    fn link_layer_distinguishes_assignments() {
        let ir = program(6);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let store = ObjectStore::new();
        let mut rng = rng_for(13, "lc2");
        for _ in 0..10 {
            let assignment: Vec<Cv> = (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect();
            let (linked, _) = store.link(0, &digests(&assignment), || {
                link(c.compile_mixed(&ir, &assignment), &ir, &arch)
            });
            assert_eq!(*linked, link(c.compile_mixed(&ir, &assignment), &ir, &arch));
        }
        assert_eq!(
            store.len(),
            (0, 10),
            "distinct assignments, distinct entries"
        );
        assert_eq!(store.link_stats().hits, 0);
    }

    #[test]
    fn bounded_link_layer_relinks_identically() {
        let ir = program(6);
        let c = Compiler::icc(Target::avx2_256());
        let arch = Architecture::broadwell();
        let bounded = ObjectStore::with_capacity(CacheCapacity::Entries(1));
        let unbounded = ObjectStore::new();
        let mut rng = rng_for(21, "blc");
        let assignments: Vec<Vec<Cv>> = (0..20)
            .map(|_| (0..ir.len()).map(|_| c.space().sample(&mut rng)).collect())
            .collect();
        // Two sweeps: the bounded store thrashes and re-links, the
        // unbounded one hits; results must be bit-identical.
        for _ in 0..2 {
            for a in &assignments {
                let key = digests(a);
                let relink = || link(c.compile_mixed(&ir, a), &ir, &arch);
                let (lb, _) = bounded.link(0, &key, relink);
                let (lu, _) = unbounded.link(0, &key, relink);
                assert_eq!(*lb, *lu);
            }
        }
        let s = bounded.link_stats();
        assert!(s.evictions > 0, "tiny store must evict");
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.computes, s.misses);
        assert_eq!(unbounded.link_stats().evictions, 0);
    }
}
