#include "ropuf/distiller/poly_surface.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ropuf::distiller {

int coefficient_count(int degree) {
    assert(degree >= 0);
    return (degree + 1) * (degree + 2) / 2;
}

int coefficient_index(int i, int j) {
    assert(i >= 0 && j >= 0 && j <= i);
    // Terms of total degree < i occupy i(i+1)/2 slots; j indexes within.
    return i * (i + 1) / 2 + j;
}

PolySurface::PolySurface(int degree)
    : degree_(degree), beta_(static_cast<std::size_t>(coefficient_count(degree)), 0.0) {}

PolySurface::PolySurface(int degree, std::vector<double> beta)
    : degree_(degree), beta_(std::move(beta)) {
    if (static_cast<int>(beta_.size()) != coefficient_count(degree)) {
        throw std::invalid_argument("PolySurface: coefficient count does not match degree");
    }
}

double PolySurface::operator()(double x, double y) const {
    double acc = 0.0;
    for (int i = 0; i <= degree_; ++i) {
        for (int j = 0; j <= i; ++j) {
            acc += beta_[static_cast<std::size_t>(coefficient_index(i, j))] *
                   std::pow(x, i - j) * std::pow(y, j);
        }
    }
    return acc;
}

namespace {

/// std::pow(c, k) for every column and row coordinate c of one geometry and
/// every k up to the highest degree evaluated on it so far. The tables hold
/// std::pow results, not integer powers: the degree follows the coefficient
/// count up to 16, and 31^16 is far past 2^53.
struct PowerTables {
    int cols = -1;
    int rows = -1;
    int degree = -1;
    std::vector<double> x; // x[k * cols + c] = c^k
    std::vector<double> y; // y[k * rows + r] = r^k

    void cover(const sim::ArrayGeometry& g, int need) {
        if (g.cols != cols || g.rows != rows) {
            cols = g.cols;
            rows = g.rows;
            degree = -1;
            x.clear();
            y.clear();
        }
        for (int k = degree + 1; k <= need; ++k) {
            for (int c = 0; c < cols; ++c) x.push_back(std::pow(static_cast<double>(c), k));
            for (int r = 0; r < rows; ++r) y.push_back(std::pow(static_cast<double>(r), k));
        }
        degree = std::max(degree, need);
    }
};

/// Each thread keeps the tables of the last geometry it evaluated, so the
/// per-probe distiller subtraction makes no libm call.
const PowerTables& power_tables(const sim::ArrayGeometry& g, int degree) {
    thread_local PowerTables tables;
    tables.cover(g, degree);
    return tables;
}

} // namespace

std::vector<double> PolySurface::evaluate_grid(const sim::ArrayGeometry& g) const {
    // Coordinates are integers, so every monomial is a product of two table
    // entries: the same std::pow doubles operator() computes. Term-major:
    // each cell still adds its terms to 0.0 in coefficient order, as
    // (beta * x^(i-j)) * y^j, so every value is bitwise equal to operator();
    // the inner loop runs over independent cells of a row.
    const PowerTables& pow = power_tables(g, degree_);
    const auto cols = static_cast<std::size_t>(g.cols);
    const auto rows = static_cast<std::size_t>(g.rows);
    std::vector<double> out(static_cast<std::size_t>(g.count()), 0.0);
    for (int i = 0; i <= degree_; ++i) {
        for (int j = 0; j <= i; ++j) {
            const double b = beta_[static_cast<std::size_t>(coefficient_index(i, j))];
            const double* const xk = pow.x.data() + static_cast<std::size_t>(i - j) * cols;
            const double* const yk = pow.y.data() + static_cast<std::size_t>(j) * rows;
            for (std::size_t y = 0; y < rows; ++y) {
                double* const row = out.data() + y * cols;
                for (std::size_t x = 0; x < cols; ++x) row[x] += b * xk[x] * yk[y];
            }
        }
    }
    return out;
}

PolySurface PolySurface::operator+(const PolySurface& other) const {
    const int deg = std::max(degree_, other.degree_);
    PolySurface out(deg);
    for (std::size_t i = 0; i < beta_.size(); ++i) out.beta_[i] += beta_[i];
    for (std::size_t i = 0; i < other.beta_.size(); ++i) out.beta_[i] += other.beta_[i];
    return out;
}

PolySurface PolySurface::operator-(const PolySurface& other) const {
    return *this + (-other);
}

PolySurface PolySurface::operator-() const {
    PolySurface out(degree_);
    for (std::size_t i = 0; i < beta_.size(); ++i) out.beta_[i] = -beta_[i];
    return out;
}

PolySurface PolySurface::plane(double a, double b, double c) {
    PolySurface s(1);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = a;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 0))] = b; // x term
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 1))] = c; // y term
    return s;
}

PolySurface PolySurface::quadratic_x(double amp, double x0) {
    // amp (x - x0)^2 = amp x^2 - 2 amp x0 x + amp x0^2
    PolySurface s(2);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = amp * x0 * x0;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 0))] = -2.0 * amp * x0;
    s.beta_[static_cast<std::size_t>(coefficient_index(2, 0))] = amp;
    return s;
}

PolySurface PolySurface::quadratic_y(double amp, double y0) {
    PolySurface s(2);
    s.beta_[static_cast<std::size_t>(coefficient_index(0, 0))] = amp * y0 * y0;
    s.beta_[static_cast<std::size_t>(coefficient_index(1, 1))] = -2.0 * amp * y0;
    s.beta_[static_cast<std::size_t>(coefficient_index(2, 2))] = amp;
    return s;
}

} // namespace ropuf::distiller
