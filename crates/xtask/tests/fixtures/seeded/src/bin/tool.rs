//! Binary entry points are exempt from `macro-body` and `lock-unwrap`;
//! nothing in this file may be reported.

macro_rules! must {
    ($x:expr) => {
        $x.expect("binaries may panic")
    };
}

fn main() {
    let m = std::sync::Mutex::new(1u32);
    let v = *m.lock().unwrap();
    println!("{}", must!(Some(v)));
}
