use ddl_cachesim::CacheConfig;
use ddl_core::grammar::parse;
use ddl_core::planner::{try_plan_dft, PlannerConfig};
use ddl_core::traced::simulate_dft;
use ddl_core::DftPlan;
use ddl_num::Direction;

fn main() {
    let cache = CacheConfig::paper_default(64);
    let n = 1usize << 18;
    let sdl = try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap();
    let ddl = try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap();
    println!("SDL-planned: {}", sdl.tree);
    println!("DDL-planned: {}", ddl.tree);
    for (label, expr) in [
        ("sdl-planned", format!("{}", sdl.tree)),
        ("ddl-planned", format!("{}", ddl.tree)),
        ("rightmost64", "ct(64,ct(64,64))".to_string()),
        ("rm-rootddl", "ctddl(64,ct(64,64))".to_string()),
        ("balanced", "ct(ct(16,32),ct(16,32))".to_string()),
        ("bal-rootddl", "ctddl(ct(16,32),ct(16,32))".to_string()),
        (
            "bal-all-ddl",
            "ctddl(ctddl(16,32),ctddl(16,32))".to_string(),
        ),
    ] {
        let tree = parse(&expr).unwrap();
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        let s = simulate_dft(&plan, 1, cache).expect("simulate");
        println!(
            "{label:>12}: miss {:6.2}%  misses {:>9}  accesses {:>9}",
            s.miss_rate() * 100.0,
            s.misses,
            s.accesses
        );
    }
}
