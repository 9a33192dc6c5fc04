// Small dense linear algebra.
//
// The systems solved in this library are tiny (AR(p) and QRSM normal
// equations: dimensions < 100), so Gaussian elimination with partial
// pivoting is the right tool — no factorization library needed.
#pragma once

#include <vector>

namespace cloudprov {

/// Solves A x = b (Gaussian elimination, partial pivoting).
/// Throws std::invalid_argument on dimension mismatch or singular systems.
std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b);

}  // namespace cloudprov
