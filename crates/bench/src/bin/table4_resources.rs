//! Table IV: FPGA resource usage of the three Genesis accelerators on the
//! VU9P, from the analytical resource model (DESIGN.md §2).

fn main() {
    print!("{}", genesis_bench::table4_resources());
}
