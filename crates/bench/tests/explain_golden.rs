//! Golden `explain` test: every rendering of the provenance ledger over
//! the suite is pinned. For each of the 12 programs and each Table-2 and
//! Table-3 configuration, one `analyze_provenance` renders `explain` for
//! every procedure but `main` (unnarrowed, and narrowed to its first
//! formal) plus the attribution table, and the renderings hash to one
//! digest per cell. Any change to a justifying edge, a level, a
//! return-jump-function chain or an attribution bucket moves a digest.

use ipcp_analysis::Slot;
use ipcp_bench::{prepare_suite, table2_configs, table3_configs, PreparedProgram};
use ipcp_core::{analyze_provenance, report::slot_name, AnalysisConfig};
use ipcp_ir::fingerprint::Fnv1a;

/// (program, [the six Table-2 columns, then the four Table-3 columns]).
const EXPLAIN_GOLDEN: [(&str, [u64; 10]); 12] = [
    (
        "adm",
        [
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0x9ed0d7823e2d11f4,
            0x4bce1f611afda16d,
            0x4bce1f611afda16d,
            0xff909284c6f804a7,
        ],
    ),
    (
        "doduc",
        [
            0xf43b43074eacb53c,
            0xf43b43074eacb53c,
            0xf43b43074eacb53c,
            0x2d4e9ae2b6cd2992,
            0x53370efdaa737f21,
            0x53370efdaa737f21,
            0x2051d708092c1409,
            0xf43b43074eacb53c,
            0xf43b43074eacb53c,
            0xf0ed4a114379c634,
        ],
    ),
    (
        "fpppp",
        [
            0xb28ceb1705830563,
            0xb28ceb1705830563,
            0x5473430a087af88f,
            0xb66d22cc52533bd3,
            0x2aac24543be4c880,
            0x2aac24543be4c880,
            0x9cdd6c26e6faae3c,
            0xb28ceb1705830563,
            0xb28ceb1705830563,
            0x911dd69fe16fd66e,
        ],
    ),
    (
        "linpackd",
        [
            0xb1e8241c11a07992,
            0xb1e8241c11a07992,
            0xb1e8241c11a07992,
            0x1b3cff35b018bc4c,
            0xb1e8241c11a07992,
            0xb1e8241c11a07992,
            0x20b37935f61fe4dc,
            0xb1e8241c11a07992,
            0xb1e8241c11a07992,
            0xdd13ecf121e8353d,
        ],
    ),
    (
        "matrix300",
        [
            0x1348f4cd5c0a6ea7,
            0x1348f4cd5c0a6ea7,
            0x2f11f098c1a0935b,
            0xe6ca2f527c115088,
            0x1348f4cd5c0a6ea7,
            0x1348f4cd5c0a6ea7,
            0x6755a7f6864e4e2f,
            0x1348f4cd5c0a6ea7,
            0x1348f4cd5c0a6ea7,
            0x0192d77fccf8a5d5,
        ],
    ),
    (
        "mdg",
        [
            0x6df364284899f539,
            0x6df364284899f539,
            0x8e7787a2eb41f32c,
            0x6489a83746bf26ed,
            0xa816e8e906eb0aae,
            0xa816e8e906eb0aae,
            0x515b82df9f452ede,
            0x6df364284899f539,
            0x6df364284899f539,
            0xa2ebad9a9396b7ae,
        ],
    ),
    (
        "ocean",
        [
            0xb6c779555a3eeffd,
            0xb6c779555a3eeffd,
            0xb6c779555a3eeffd,
            0x7da8e0ca8a3bcb58,
            0xbf7ebc2af8841e3e,
            0xbf7ebc2af8841e3e,
            0xbf7ebc2af8841e3e,
            0xb6c779555a3eeffd,
            0xb6c779555a3eeffd,
            0x54719c98780f99c4,
        ],
    ),
    (
        "qcd",
        [
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x487e36b2ac1fd1d7,
            0x8fb62d5002ce144c,
            0x8fb62d5002ce144c,
            0x798c291ebf2d6a26,
        ],
    ),
    (
        "simple",
        [
            0xd97151b711fc7d63,
            0xd97151b711fc7d63,
            0x9d75a670efe52eee,
            0x858cfc03c13e6b33,
            0xd97151b711fc7d63,
            0xd97151b711fc7d63,
            0x34f78b5cb213e441,
            0xd97151b711fc7d63,
            0xd97151b711fc7d63,
            0x83723953cd34ebca,
        ],
    ),
    (
        "snasa7",
        [
            0xc0fcd420fa37cae2,
            0xc0fcd420fa37cae2,
            0xc0fcd420fa37cae2,
            0x489620e41268794f,
            0xc0fcd420fa37cae2,
            0xc0fcd420fa37cae2,
            0x3965fda8f6d694e2,
            0xc0fcd420fa37cae2,
            0xc0fcd420fa37cae2,
            0x489620e41268794f,
        ],
    ),
    (
        "spec77",
        [
            0x89743ab9c1fefaed,
            0x89743ab9c1fefaed,
            0x89743ab9c1fefaed,
            0xd0a1cf83ce0cb954,
            0x89743ab9c1fefaed,
            0x89743ab9c1fefaed,
            0x12c9ef0e9fdec8a6,
            0x89743ab9c1fefaed,
            0x89743ab9c1fefaed,
            0x9e08ff0a939595a1,
        ],
    ),
    (
        "trfd",
        [
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0xdd3222f4bfea76d0,
            0x789b67fa6b4c98df,
            0x789b67fa6b4c98df,
            0x216edc7c65552d86,
        ],
    ),
];

/// The digest of every `explain` rendering of `p` under `config`.
fn cell_digest(p: &PreparedProgram, config: &AnalysisConfig) -> u64 {
    let prov = analyze_provenance(&p.ir, config);
    let mut h = Fnv1a::new();
    let mut add = |rendered: Result<String, String>| {
        let text = rendered.unwrap_or_else(|e| format!("error: {e}"));
        h.write_bytes(text.as_bytes());
        h.write_bytes(&[0]);
    };
    for (i, proc) in p.ir.procs.iter().enumerate() {
        if proc.name == "main" {
            continue;
        }
        add(prov.explain(&proc.name, None));
        if proc.num_formals > 0 {
            let pid = ipcp_ir::ProcId::from_index(i);
            let formal = slot_name(prov.program(), pid, Slot::Formal(0));
            add(prov.explain(&proc.name, Some(&formal)));
        }
    }
    add(Ok(prov.attribution_table()));
    h.finish()
}

#[test]
fn explain_renderings_are_pinned() {
    let suite = prepare_suite();
    let mut configs = table2_configs();
    configs.extend(table3_configs());
    let mut mismatches = Vec::new();
    for (p, (name, expect)) in suite.iter().zip(EXPLAIN_GOLDEN.iter()) {
        assert_eq!(&p.generated.name, name);
        let got: Vec<u64> = configs.iter().map(|(_, c)| cell_digest(p, c)).collect();
        if got != expect.to_vec() {
            let cells: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            mismatches.push(format!("(\"{name}\", [{}]),", cells.join(", ")));
        }
    }
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}
