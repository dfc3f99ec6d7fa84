//! Fixture: unsigned subtraction (one flag).

fn remaining(budget: u64, spent: u64) -> u64 {
    budget - spent
}
