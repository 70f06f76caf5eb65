/**
 * @file
 * Regenerates Fig. 3: the QoE measurement example. A request's tokens
 * are generated faster than the user's reading pace, the server then
 * pauses (preemption), the pacer buffer drains, the user starves, and
 * generation finally resumes. The bench prints the three curves
 * (system generated / user digested / user expected) and the resulting
 * QoE score.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "src/qoe/qoe.hh"
#include "src/qoe/token_pacer.hh"

int
main()
{
    using namespace pascal;
    using namespace pascal::bench;

    header("Fig. 3", "QoE measurement example (token pacer + "
                     "digested-vs-expected areas)");

    // Scenario mirroring the figure: target pace 1 token/s.
    //  (i)   t in [0, 8): generation at 2 tokens/s (faster than pace)
    //  (ii)  t in [8, 16): server paused, the buffer drains
    //  (iii) t in [16, 20): buffer empty, the user starves
    //  (iv)  t >= 20: generation resumes at pace.
    const Time pace = 1.0;
    std::vector<Time> emits;
    for (int i = 0; i < 16; ++i)
        emits.push_back(i * 0.5); // 16 tokens by t=7.5.
    for (int i = 0; i < 14; ++i)
        emits.push_back(20.0 + i); // Resume at t=20.

    auto curves = qoe::buildQoeCurves(emits, 0.0, pace);
    qoe::TokenPacer pacer(pace);
    for (Time t : emits)
        pacer.onTokenGenerated(t);
    // A pacer fed only the tokens generated by time t, so starvedAt
    // sees what existed at that moment.
    auto pacer_at = [&](Time t) {
        qoe::TokenPacer p(pace);
        for (Time e : emits)
            if (e <= t)
                p.onTokenGenerated(e);
        return p;
    };

    std::printf("%6s %12s %12s %12s %10s\n", "token", "generated",
                "digested", "expected", "buffered");
    for (std::size_t k = 0; k < emits.size(); k += 3) {
        std::printf("%6zu %12.1f %12.1f %12.1f %10zu\n", k,
                    curves.generated[k], curves.digested[k],
                    curves.expected[k],
                    pacer.bufferedAt(curves.digested[k]));
    }
    rule();
    std::printf("tokens generated : %zu\n", emits.size());
    std::printf("starved at t=18? : %s (buffer empty, server paused)\n",
                pacer_at(18.0).starvedAt(18.0) ? "yes" : "no");
    std::printf("starved at t=5?  : %s (buffer holds surplus)\n",
                pacer_at(5.0).starvedAt(5.0) ? "yes" : "no");
    std::printf("QoE (area ratio) : %.4f  -> %s 0.95 threshold\n",
                curves.qoe, curves.qoe < 0.95 ? "below" : "meets");

    // Contrast: a perfectly paced request scores exactly 1.
    std::vector<Time> steady;
    for (int i = 0; i < 30; ++i)
        steady.push_back(i * pace);
    std::printf("steady-pace QoE  : %.4f (reference)\n",
                qoe::buildQoeCurves(steady, 0.0, pace).qoe);
    return 0;
}
