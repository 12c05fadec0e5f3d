#pragma once
// Decibel conversion helpers. Power quantities throughout the codebase are
// linear milliwatts unless the name says otherwise (`*_dbm`, `*_db`).

#include <cmath>

namespace lscatter::dsp {

/// Power ratio -> dB.
inline double lin_to_db(double ratio) { return 10.0 * std::log10(ratio); }

/// dB -> power ratio.
inline double db_to_lin(double db) { return std::pow(10.0, db / 10.0); }

/// Power in mW -> dBm.
inline double mw_to_dbm(double mw) { return 10.0 * std::log10(mw); }

/// dBm -> power in mW.
inline double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

/// dB -> amplitude ratio.
inline double db_to_amp(double db) { return std::pow(10.0, db / 20.0); }

}  // namespace lscatter::dsp
