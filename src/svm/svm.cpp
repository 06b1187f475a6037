#include "svm/svm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "svm/qmatrix.hpp"

namespace hsd::svm {

double rbfKernel(const FeatureVector& a, const FeatureVector& b,
                 double gamma) {
  if (a.size() != b.size())
    throw std::invalid_argument("svm::rbfKernel: dimension mismatch");
  double d2 = 0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return std::exp(-gamma * d2);
}

namespace {

constexpr double kTau = 1e-12;

}  // namespace

TrainResult train(const Dataset& data, const SvmParams& params) {
  const std::size_t n = data.size();
  if (n == 0) throw std::invalid_argument("svm::train: empty dataset");
  if (data.countLabel(1) == 0 || data.countLabel(-1) == 0)
    throw std::invalid_argument("svm::train: need both classes present");

  std::vector<double> alpha(n, 0.0);
  std::vector<double> grad(n, -1.0);  // G_i = sum_j Q_ij a_j - 1
  std::vector<double> cap(n);
  for (std::size_t i = 0; i < n; ++i)
    cap[i] = params.C * (data.y[i] > 0 ? params.weightPos : params.weightNeg);

  QMatrix q(data, params.gamma, params.kernelCacheBytes);

  const auto inUp = [&](std::size_t t) {
    return data.y[t] > 0 ? alpha[t] < cap[t] : alpha[t] > 0;
  };
  const auto inLow = [&](std::size_t t) {
    return data.y[t] > 0 ? alpha[t] > 0 : alpha[t] < cap[t];
  };

  std::size_t iter = 0;
  bool converged = false;
  for (; iter < params.maxIter; ++iter) {
    // First index: maximal violator in I_up (both WSS variants).
    double gmax = -std::numeric_limits<double>::infinity();
    double gmin = std::numeric_limits<double>::infinity();
    std::size_t i = n, j = n;
    for (std::size_t t = 0; t < n; ++t) {
      const double v = -double(data.y[t]) * grad[t];
      if (inUp(t) && v > gmax) {
        gmax = v;
        i = t;
      }
      if (inLow(t) && v < gmin) {
        gmin = v;
        j = t;
      }
    }
    if (i >= n || j >= n || gmax - gmin < params.eps) {
      converged = true;
      break;
    }

    const std::vector<float>& qi = q.row(i);
    if (params.secondOrderWss) {
      // Second index: maximal second-order objective decrease among the
      // violating I_low candidates (libsvm WSS2).
      double bestObj = -std::numeric_limits<double>::infinity();
      std::size_t bestJ = n;
      for (std::size_t t = 0; t < n; ++t) {
        if (!inLow(t)) continue;
        const double gradDiff = gmax + double(data.y[t]) * grad[t];
        if (gradDiff <= 0) continue;
        // Raw kernel value K_it = y_i y_t Q_it.
        const double kit =
            double(data.y[i]) * double(data.y[t]) * double(qi[t]);
        double quad = double(q.diag(i)) + q.diag(t) - 2.0 * kit;
        if (quad <= 0) quad = kTau;
        const double obj = gradDiff * gradDiff / quad;
        if (obj > bestObj) {
          bestObj = obj;
          bestJ = t;
        }
      }
      if (bestJ < n) j = bestJ;
    }
    // The second lookup pins row i: the solver keeps reading qi below,
    // and an unpinned capacity eviction here would dangle it (the
    // use-after-free this PR fixes; see svm/qmatrix.hpp).
    const std::vector<float>& qj = q.row(j, /*pinned=*/i);
    const double oldAi = alpha[i];
    const double oldAj = alpha[j];

    if (data.y[i] != data.y[j]) {
      double quad = double(q.diag(i)) + q.diag(j) + 2.0 * qi[j];
      if (quad <= 0) quad = kTau;
      const double delta = (-grad[i] - grad[j]) / quad;
      const double diff = alpha[i] - alpha[j];
      alpha[i] += delta;
      alpha[j] += delta;
      if (diff > 0) {
        if (alpha[j] < 0) {
          alpha[j] = 0;
          alpha[i] = diff;
        }
      } else {
        if (alpha[i] < 0) {
          alpha[i] = 0;
          alpha[j] = -diff;
        }
      }
      if (diff > cap[i] - cap[j]) {
        if (alpha[i] > cap[i]) {
          alpha[i] = cap[i];
          alpha[j] = cap[i] - diff;
        }
      } else {
        if (alpha[j] > cap[j]) {
          alpha[j] = cap[j];
          alpha[i] = cap[j] + diff;
        }
      }
    } else {
      double quad = double(q.diag(i)) + q.diag(j) - 2.0 * qi[j];
      if (quad <= 0) quad = kTau;
      const double delta = (grad[i] - grad[j]) / quad;
      const double sum = alpha[i] + alpha[j];
      alpha[i] -= delta;
      alpha[j] += delta;
      if (sum > cap[i]) {
        if (alpha[i] > cap[i]) {
          alpha[i] = cap[i];
          alpha[j] = sum - cap[i];
        }
      } else {
        if (alpha[j] < 0) {
          alpha[j] = 0;
          alpha[i] = sum;
        }
      }
      if (sum > cap[j]) {
        if (alpha[j] > cap[j]) {
          alpha[j] = cap[j];
          alpha[i] = sum - cap[j];
        }
      } else {
        if (alpha[i] < 0) {
          alpha[i] = 0;
          alpha[j] = sum;
        }
      }
    }

    const double dAi = alpha[i] - oldAi;
    const double dAj = alpha[j] - oldAj;
    for (std::size_t t = 0; t < n; ++t)
      grad[t] += qi[t] * dAi + qj[t] * dAj;
  }

  // Bias (libsvm calculate_rho).
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  double sumFree = 0;
  std::size_t nFree = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yg = double(data.y[t]) * grad[t];
    if (alpha[t] >= cap[t]) {
      if (data.y[t] < 0)
        ub = std::min(ub, yg);
      else
        lb = std::max(lb, yg);
    } else if (alpha[t] <= 0) {
      if (data.y[t] > 0)
        ub = std::min(ub, yg);
      else
        lb = std::max(lb, yg);
    } else {
      ++nFree;
      sumFree += yg;
    }
  }
  const double rho = nFree > 0 ? sumFree / double(nFree) : (ub + lb) / 2;

  double objMin = 0;
  for (std::size_t t = 0; t < n; ++t) objMin += alpha[t] * (grad[t] - 1.0);
  objMin /= 2;

  std::vector<FeatureVector> sv;
  std::vector<double> coef;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 0) {
      sv.push_back(data.x[t]);
      coef.push_back(alpha[t] * data.y[t]);
    }
  }

  TrainResult out;
  out.model = SvmModel(sv, std::move(coef), rho, params.gamma);
  out.iterations = iter;
  out.converged = converged;
  out.objective = -objMin;  // paper's maximization form f(a)
  return out;
}

double SvmModel::decision(const FeatureVector& x) const {
  return decisionFrom(std::span<const double>(x.data(), x.size()));
}

double SvmModel::decisionFrom(std::span<const double> x) const {
  double d = 0;
  decisionBatch(x, {&d, 1});
  return d;
}

void SvmModel::decisionBatch(std::span<const double> xs,
                             std::span<double> out) const {
  if (packed_.empty()) {
    std::fill(out.begin(), out.end(), -rho_);
    return;
  }
  const std::size_t nsv = packed_.count();
  if (xs.size() != out.size() * packed_.dim())
    throw std::invalid_argument("SvmModel::decision: dimension mismatch");
  // ||sv_i - x_q||^2 for every pair; each accumulates in rbfKernel's
  // order, and the kernel sum below walks i sequentially per query.
  thread_local std::vector<double> d2;
  d2.resize(out.size() * nsv);
  ops::squaredDistancesBatch(packed_, xs.data(), out.size(), d2.data());
  for (std::size_t q = 0; q < out.size(); ++q) {
    const double* const row = d2.data() + q * nsv;
    double s = 0;
    for (std::size_t i = 0; i < nsv; ++i)
      s += coef_[i] * std::exp(-gamma_ * row[i]);
    out[q] = s - rho_;
  }
}

int SvmModel::predict(const FeatureVector& x, double bias) const {
  return decision(x) > bias ? 1 : -1;
}

int SvmModel::predictFrom(std::span<const double> x, double bias) const {
  return decisionFrom(x) > bias ? 1 : -1;
}

void SvmModel::save(std::ostream& os) const {
  os.precision(17);
  os << "hsd_svm_model 1\n";
  os << "gamma " << gamma_ << "\nrho " << rho_ << "\nnsv "
     << packed_.count() << " dim " << packed_.dim() << '\n';
  for (std::size_t i = 0; i < packed_.count(); ++i) {
    os << coef_[i];
    const ops::PackedVectors::Row sv = packed_.row(i);
    for (std::size_t k = 0; k < sv.size; ++k) os << ' ' << sv[k];
    os << '\n';
  }
}

SvmModel SvmModel::load(text::TextCursor& in) {
  in.expect("hsd_svm_model");
  if (in.integer<int>() != 1) in.fail("unsupported SVM model version");
  in.expect("gamma");
  const double gamma = in.real();
  in.expect("rho");
  const double rho = in.real();
  in.expect("nsv");
  const std::size_t nsv = in.integer<std::size_t>();
  in.expect("dim");
  const std::size_t dim = in.integer<std::size_t>();
  // Each row is a coefficient and `dim` components. `dim` is checked alone
  // first, which keeps `dim + 1` from wrapping; the rows are then filled
  // straight into the packed blocks.
  in.requireTokens(1, dim);
  in.requireTokens(nsv, dim + 1);
  ops::PackedVectors sv(nsv, dim);
  std::vector<double> coef(nsv);
  for (std::size_t i = 0; i < nsv; ++i) {
    coef[i] = in.real();
    for (std::size_t k = 0; k < dim; ++k) sv.at(i, k) = in.real();
  }
  SvmModel m;
  m.coef_ = std::move(coef);
  m.rho_ = rho;
  m.gamma_ = gamma;
  m.packed_ = std::move(sv);
  return m;
}

SvmModel SvmModel::load(std::istream& is) {
  text::TextCursor in(is, "SvmModel::load");
  return load(in);
}

double trainingAccuracy(const SvmModel& model, const Dataset& data) {
  if (data.empty()) return 1.0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (model.predict(data.x[i]) == data.y[i]) ++ok;
  return double(ok) / double(data.size());
}

}  // namespace hsd::svm
