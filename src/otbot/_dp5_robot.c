// Generated by scripts/gen_task_space.py; do not edit by hand.
// generator sha256: 17cf34ce187268ccb5c864c6f3c18e6ebec0a8cf1d7716922d8b1af1ea651307
// sympy 1.14.0
//
// The rollout loop of the robot and of an isolated shaft, a whole rollout
// in one call on a struct rollout (otbot._ckernel.Rollout) for the model of
// its MODELS row (otbot._ckernel.MODELS). rollout runs the event loop of
// otbot.simulate.integrate, with the law of otbot.control.computed_torque;
// first_step and advance are translated from the first-step guess and the
// step loop of otbot.integrator.initial_step and advance_segment; each
// dp5_<model>_attempt is one Dormand-Prince 5(4) attempt on the rhs of
// otbot.dynamics.state_derivative (robot_rhs, from otbot._task_space),
// otbot.simulate.shaft_derivative (shaft_rhs) or their sensitivities
// (otbot._task_sensitivity). blk holds the parameters (the robot's
// l1, l2, r, xB, yB, xF, yF, mc, mp, Ic, Ip, Ia, bw, bp; a shaft's
// inertia and damping), a sensitivity model's seeds, then the held input
// and pivot force. Every value is bit for bit the Python's: the error norm
// and the law's products reduce through numpy's BLAS ddot and dgemv, and
// the guess's means in numpy's pairwise order. A nonzero status stops the
// loop where Python raises: 1 a zero divisor, 2 sin or cos of an infinite
// angle, 3 a step underflow.

#include <math.h>

/* two sensitivity lanes, one SSE2 register on x86-64 */
typedef double lanes2 __attribute__((vector_size(16)));

struct rollout {
    void *events;
    void *out;
    void *start;
    void *brk;
    void *held;
    void *forces;
    void *states;
    void *derivs;
    void *controls;
    void *reference;
    void *u_traj;
    void *u_corr;
    void *mbar;
    void *cbar;
    void *ddot;
    void *dgemv;
    double rtol;
    double atol;
    double h;
    long accepted;
    long rejected;
    long fevals;
    long row;
    long instant;
    long law;
    long model;
    double blk[51];
    double x[60];
    double k1[60];
    double kp[3];
    double kv[3];
};

static int robot_rhs(const double *blk, const double *x, double *k)
{
    const double alpha = x[2];
    const double theta = (x[2] - x[5]);
    const double dx = x[6];
    const double dy = x[7];
    const double da = x[8];
    const double dth = (x[8] - x[11]);
    const double l1 = blk[0];
    const double l2 = blk[1];
    const double r = blk[2];
    const double xB = blk[3];
    const double yB = blk[4];
    const double xF = blk[5];
    const double yF = blk[6];
    const double mc = blk[7];
    const double mp = blk[8];
    const double Ic = blk[9];
    const double Ip = blk[10];
    const double Ia = blk[11];
    const double bw = blk[12];
    const double bp = blk[13];
    if (isinf(alpha)) return 2;
    const double ca = cos(alpha);
    const double sa = sin(alpha);
    if (isinf(theta)) return 2;
    const double ct = cos(theta);
    const double st = sin(theta);
    const double t0 = (ct * l1);
    const double t1 = (l2 * st);
    const double t2 = (t0 - t1);
    if (r == 0.0) return 1;
    const double t3 = (1.0 / r);
    const double t4 = (t2 * t3);
    if (l1 == 0.0) return 1;
    const double t5 = (1.0 / l1);
    const double t6 = (Ia * t5);
    const double t7 = (ct * l2);
    const double t8 = (l1 * st);
    const double t9 = (t7 - t8);
    if (l2 == 0.0) return 1;
    const double t10 = (r / l2);
    const double t11 = ((1.0 / 2.0) * t10);
    const double t12 = (t11 * (mc + mp));
    const double t13 = (ca * yF);
    const double t14 = (ct * yB);
    const double t15 = (st * xB);
    const double t16 = (sa * xF);
    const double t17 = ((((mc * t14) + (mc * t15)) + (mp * t13)) + (mp * t16));
    const double t18 = (t11 * t17);
    const double t19 = (t0 + t1);
    const double t20 = (ct * xB);
    const double t21 = (st * yB);
    const double t22 = (t20 - t21);
    const double t23 = (mc * t22);
    const double t24 = (t19 * t23);
    const double t25 = (t14 + t15);
    const double t26 = (mc * t25);
    const double t27 = (t26 * t9);
    const double t28 = (Ic + (mc * ((xB * xB) + (yB * yB))));
    const double t29 = (t11 * t5);
    const double t30 = (t29 * ((t24 - t27) + t28));
    const double t31 = (t7 + t8);
    const double t32 = (t3 * t6);
    const double t33 = (ca * xF);
    const double t34 = (sa * yF);
    const double t35 = ((((mc * t20) - (mc * t21)) + (mp * t33)) - (mp * t34));
    const double t36 = (t11 * t35);
    const double t37 = (Ip + (mp * ((xF * xF) + (yF * yF))));
    const double t38 = (t29 * (((t2 * t23) + (t26 * t31)) + t28));
    const double t39 = (t13 + t16);
    const double t40 = (t33 - t34);
    const double t41 = (blk[18] * t11);
    const double t42 = (blk[17] * t11);
    const double t43 = (((da * da) * mp) * t11);
    const double t44 = (2.0 * bw);
    const double t45 = (dth * t31);
    const double t46 = ((2.0 * Ia) * t3);
    const double t47 = (dth * t10);
    const double t48 = (t28 * t47);
    const double t49 = (ct * t48);
    const double t50 = ((ct * t22) - (st * t25));
    const double t51 = (-t50);
    const double t52 = (mc * t47);
    const double t53 = (t19 * t52);
    const double t54 = (ct * t25);
    const double t55 = ((st * t22) + t54);
    const double t56 = (t52 * t9);
    const double t57 = ((1.0 / 2.0) * t5);
    const double t58 = (dx * t57);
    const double t59 = (st * t48);
    const double t60 = ((st * t22) + t54);
    const double t61 = (dy * t57);
    const double t62 = (t3 * t44);
    const double t63 = (dth * t46);
    const double t64 = ((mc * t10) * t45);
    const double t65 = (t2 * t52);
    const double t66 = (bp * t5);
    const double m00 = (((((-st) * t30) + (t12 * t9)) - t18) + (t4 * t6));
    const double m01 = ((((ct * t30) + (t12 * t19)) + (t31 * t32)) + t36);
    const double m02 = (t11 * ((((((-t17) * t9) + (t19 * t35)) - t24) + t27) + t37));
    const double m10 = ((((st * t38) + (t12 * t31)) + t18) + (t19 * t32));
    const double m11 = (((((-ct) * t38) - (t12 * t2)) - (t32 * t9)) - t36);
    const double m12 = (t11 * ((((((mc * t2) * t22) + ((mc * t25) * t31)) - (t17 * t31)) - (t2 * t35)) - t37));
    const double m20 = ((-mp) * t39);
    const double m21 = (mp * t40);
    const double m22 = t37;
    const double b0 = ((((((t19 * t41) + (t42 * t9)) + (t43 * ((t19 * t39) + (t40 * t9)))) - (t58 * (((((t4 * t44) - (t45 * t46)) - t49) + (t51 * t53)) + (t55 * t56)))) - (t61 * ((((((((2.0 * Ia) * dth) * t2) * t3) + (((2.0 * bw) * t3) * t31)) - (t50 * t56)) - (t53 * t60)) - t59))) + blk[14]);
    const double b1 = (((((((-t2) * t41) + (t31 * t42)) + (t43 * (((-t2) * t39) + (t31 * t40)))) - (t58 * (((((t19 * t62) + t49) - (t51 * t65)) + (t55 * t64)) + (t63 * t9)))) - (t61 * (((((t19 * t63) - (t50 * t64)) + t59) + (t60 * t65)) - (t62 * t9)))) + blk[15]);
    const double b2 = (((((-bp) * da) + ((ct * dy) * t66)) - ((dx * st) * t66)) + blk[16]);
    const double a00 = ((m11 * m22) - (m12 * m21));
    const double a01 = ((m02 * m21) - (m01 * m22));
    const double a02 = ((m01 * m12) - (m02 * m11));
    const double a10 = ((m12 * m20) - (m10 * m22));
    const double a11 = ((m00 * m22) - (m02 * m20));
    const double a12 = ((m02 * m10) - (m00 * m12));
    const double a20 = ((m10 * m21) - (m11 * m20));
    const double a21 = ((m01 * m20) - (m00 * m21));
    const double a22 = ((m00 * m11) - (m01 * m10));
    const double tmp0 = (((m00 * a00) + (m01 * a10)) + (m02 * a20));
    if (tmp0 == 0.0) return 1;
    const double inv_det = (1.0 / tmp0);
    const double ddx = ((((a00 * b0) + (a01 * b1)) + (a02 * b2)) * inv_det);
    const double ddy = ((((a10 * b0) + (a11 * b1)) + (a12 * b2)) * inv_det);
    const double dda = ((((a20 * b0) + (a21 * b1)) + (a22 * b2)) * inv_det);
    const double s0 = (ct * l2);
    const double s1 = (l1 * st);
    const double s2 = (s0 + s1);
    const double s3 = (ct * l1);
    const double s4 = (l2 * st);
    const double s5 = (s3 - s4);
    const double s6 = (dth * dx);
    const double s7 = (dth * dy);
    const double s8 = (1.0 / l1);
    const double s9 = (s8 / r);
    const double s10 = (s3 + s4);
    const double s11 = (s0 - s1);
    const double s12 = (s8 * st);
    const double s13 = (ct * s8);
    const double ddphi_r = (s9 * ((((ddx * s5) + (ddy * s2)) - (s2 * s6)) + (s5 * s7)));
    const double ddphi_l = (s9 * ((((ddx * s10) - (ddy * s11)) + (s10 * s7)) + (s11 * s6)));
    const double ddphi_p = ((((dda + (ddx * s12)) - (ddy * s13)) + (s12 * s7)) + (s13 * s6));
    k[0] = x[6];
    k[1] = x[7];
    k[2] = x[8];
    k[3] = x[9];
    k[4] = x[10];
    k[5] = x[11];
    k[6] = ddx;
    k[7] = ddy;
    k[8] = dda;
    k[9] = ddphi_r;
    k[10] = ddphi_l;
    k[11] = ddphi_p;
    return 0;
}

static int task_space_model(const double *blk, const double *x, double *m, double *c)
{
    const double alpha = x[2];
    const double theta = (x[2] - x[5]);
    const double da = x[8];
    const double dth = (x[8] - x[11]);
    const double l1 = blk[0];
    const double l2 = blk[1];
    const double r = blk[2];
    const double xB = blk[3];
    const double yB = blk[4];
    const double xF = blk[5];
    const double yF = blk[6];
    const double mc = blk[7];
    const double mp = blk[8];
    const double Ic = blk[9];
    const double Ip = blk[10];
    const double Ia = blk[11];
    const double bw = blk[12];
    const double bp = blk[13];
    if (isinf(alpha)) return 2;
    const double ca = cos(alpha);
    const double sa = sin(alpha);
    if (isinf(theta)) return 2;
    const double ct = cos(theta);
    const double st = sin(theta);
    const double t0 = (ct * l1);
    const double t1 = (l2 * st);
    const double t2 = (t0 - t1);
    if (l1 == 0.0) return 1;
    const double t3 = (1.0 / l1);
    if (r == 0.0) return 1;
    const double t4 = (1.0 / r);
    const double t5 = (Ia * t4);
    const double t6 = (t3 * t5);
    const double t7 = (ct * l2);
    const double t8 = (l1 * st);
    const double t9 = (t7 - t8);
    if (l2 == 0.0) return 1;
    const double t10 = (1.0 / l2);
    const double t11 = (((1.0 / 2.0) * r) * t10);
    const double t12 = (t11 * (mc + mp));
    const double t13 = (ca * yF);
    const double t14 = (ct * yB);
    const double t15 = (st * xB);
    const double t16 = (sa * xF);
    const double t17 = ((((mc * t14) + (mc * t15)) + (mp * t13)) + (mp * t16));
    const double t18 = (t11 * t17);
    const double t19 = (t0 + t1);
    const double t20 = (ct * xB);
    const double t21 = (st * yB);
    const double t22 = (t20 - t21);
    const double t23 = (mc * t22);
    const double t24 = (t19 * t23);
    const double t25 = (t14 + t15);
    const double t26 = (mc * t25);
    const double t27 = (t26 * t9);
    const double t28 = (Ic + (mc * ((xB * xB) + (yB * yB))));
    const double t29 = (t11 * t3);
    const double t30 = (t29 * ((t24 - t27) + t28));
    const double t31 = (t7 + t8);
    const double t32 = (ca * xF);
    const double t33 = (sa * yF);
    const double t34 = ((((mc * t20) - (mc * t21)) + (mp * t32)) - (mp * t33));
    const double t35 = (t11 * t34);
    const double t36 = (Ip + (mp * ((xF * xF) + (yF * yF))));
    const double t37 = (t29 * (((t2 * t23) + (t26 * t31)) + t28));
    const double t38 = (t13 + t16);
    const double t39 = (t32 - t33);
    const double t40 = (dth * t5);
    const double t41 = (dth * t11);
    const double t42 = (t28 * t41);
    const double t43 = (ct * t42);
    const double t44 = ((ct * t22) - (st * t25));
    const double t45 = (mc * t41);
    const double t46 = (t19 * t45);
    const double t47 = (ct * t25);
    const double t48 = ((st * t22) + t47);
    const double t49 = (st * t42);
    const double t50 = ((da * mp) * t11);
    const double t51 = (bw * t4);
    const double t52 = (t31 * t45);
    const double t53 = (t2 * t45);
    const double t54 = (bp * t3);
    const double m00 = (((((-st) * t30) + (t12 * t9)) - t18) + (t2 * t6));
    const double m01 = ((((ct * t30) + (t12 * t19)) + (t31 * t6)) + t35);
    const double m02 = (t11 * ((((((-t17) * t9) + (t19 * t34)) - t24) + t27) + t36));
    const double m10 = ((((st * t37) + (t12 * t31)) + t18) + (t19 * t6));
    const double m11 = (((((-ct) * t37) - (t12 * t2)) - t35) - (t6 * t9));
    const double m12 = (t11 * ((((((mc * t2) * t22) + ((mc * t25) * t31)) - (t17 * t31)) - (t2 * t34)) - t36));
    const double m20 = ((-mp) * t38);
    const double m21 = (mp * t39);
    const double m22 = t36;
    const double c00 = (t3 * ((((((bw * t2) * t4) + (((((((1.0 / 2.0) * dth) * mc) * r) * t10) * t48) * t9)) - (t31 * t40)) - t43) - (t44 * t46)));
    const double c01 = (t3 * (((((((Ia * dth) * t2) * t4) + ((bw * t31) * t4)) - ((t44 * t45) * t9)) - (t46 * ((st * t22) + t47))) - t49));
    const double c02 = ((-t50) * ((t19 * t38) + (t39 * t9)));
    const double c10 = (t3 * (((((t19 * t51) + (t40 * t9)) + t43) + (t44 * t53)) + (t48 * t52)));
    const double c11 = (t3 * (((((t19 * t40) - (t44 * t52)) + (t48 * t53)) + t49) - (t51 * t9)));
    const double c12 = (t50 * ((t2 * t38) - (t31 * t39)));
    const double c20 = (st * t54);
    const double c21 = ((-ct) * t54);
    const double c22 = bp;
    m[0] = m00;
    m[1] = m01;
    m[2] = m02;
    m[3] = m10;
    m[4] = m11;
    m[5] = m12;
    m[6] = m20;
    m[7] = m21;
    m[8] = m22;
    c[0] = c00;
    c[1] = c01;
    c[2] = c02;
    c[3] = c10;
    c[4] = c11;
    c[5] = c12;
    c[6] = c20;
    c[7] = c21;
    c[8] = c22;
    return 0;
}

int dp5_robot_attempt(const double *blk, double h, double rtol, double atol,
                      const double *y, const double *k1,
                      double *y_new, double *k7, double *ratio)
{
    double ys[12], k2[12], k3[12], k4[12], k5[12], k6[12], e[12];
    int s;
    /* stage 2 */
    for (int j = 0; j < 12; j++) ys[j] = (y[j] + (h * (0.2 * k1[j])));
    if ((s = robot_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    for (int j = 0; j < 12; j++) ys[j] = (y[j] + (h * ((0.075 * k1[j]) + (0.225 * k2[j]))));
    if ((s = robot_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    for (int j = 0; j < 12; j++) ys[j] = (y[j] + (h * (((0.9777777777777777 * k1[j]) + ((-3.7333333333333334) * k2[j])) + (3.5555555555555554 * k3[j]))));
    if ((s = robot_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    for (int j = 0; j < 12; j++) ys[j] = (y[j] + (h * ((((2.9525986892242035 * k1[j]) + ((-11.595793324188385) * k2[j])) + (9.822892851699436 * k3[j])) + ((-0.2908093278463649) * k4[j]))));
    if ((s = robot_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    for (int j = 0; j < 12; j++) ys[j] = (y[j] + (h * (((((2.8462752525252526 * k1[j]) + ((-10.757575757575758) * k2[j])) + (8.906422717743473 * k3[j])) + (0.2784090909090909 * k4[j])) + ((-0.2735313036020583) * k5[j]))));
    if ((s = robot_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    for (int j = 0; j < 12; j++) y_new[j] = (y[j] + (h * (((((0.09114583333333333 * k1[j]) + (0.44923629829290207 * k3[j])) + (0.6510416666666666 * k4[j])) + ((-0.322376179245283) * k5[j])) + (0.13095238095238096 * k6[j]))));
    /* stage 7, at the new state */
    if ((s = robot_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    for (int j = 0; j < 12; j++) e[j] = (h * ((((((0.0012326388888888888 * k1[j]) + ((-0.0042527702905061394) * k3[j])) + (0.03697916666666667 * k4[j])) + ((-0.05086379716981132) * k5[j])) + (0.0419047619047619 * k6[j])) + ((-0.025) * k7[j])));
    /* error ratios; the caller reduces them to the norm */
    for (int j = 0; j < 12; j++) {
        const double a = fabs(y[j]);
        const double b = fabs(y_new[j]);
        ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));
    }
    return 0;
}

static int shaft_rhs(const double *blk, const double *x, double *k)
{
    k[0] = x[1];
    if (blk[0] == 0.0) return 1;
    k[1] = ((blk[2] - (blk[1] * x[1])) / blk[0]);
    return 0;
}

int dp5_shaft_attempt(const double *blk, double h, double rtol, double atol,
                      const double *y, const double *k1,
                      double *y_new, double *k7, double *ratio)
{
    double ys[2], k2[2], k3[2], k4[2], k5[2], k6[2], e[2];
    int s;
    /* stage 2 */
    for (int j = 0; j < 2; j++) ys[j] = (y[j] + (h * (0.2 * k1[j])));
    if ((s = shaft_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    for (int j = 0; j < 2; j++) ys[j] = (y[j] + (h * ((0.075 * k1[j]) + (0.225 * k2[j]))));
    if ((s = shaft_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    for (int j = 0; j < 2; j++) ys[j] = (y[j] + (h * (((0.9777777777777777 * k1[j]) + ((-3.7333333333333334) * k2[j])) + (3.5555555555555554 * k3[j]))));
    if ((s = shaft_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    for (int j = 0; j < 2; j++) ys[j] = (y[j] + (h * ((((2.9525986892242035 * k1[j]) + ((-11.595793324188385) * k2[j])) + (9.822892851699436 * k3[j])) + ((-0.2908093278463649) * k4[j]))));
    if ((s = shaft_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    for (int j = 0; j < 2; j++) ys[j] = (y[j] + (h * (((((2.8462752525252526 * k1[j]) + ((-10.757575757575758) * k2[j])) + (8.906422717743473 * k3[j])) + (0.2784090909090909 * k4[j])) + ((-0.2735313036020583) * k5[j]))));
    if ((s = shaft_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    for (int j = 0; j < 2; j++) y_new[j] = (y[j] + (h * (((((0.09114583333333333 * k1[j]) + (0.44923629829290207 * k3[j])) + (0.6510416666666666 * k4[j])) + ((-0.322376179245283) * k5[j])) + (0.13095238095238096 * k6[j]))));
    /* stage 7, at the new state */
    if ((s = shaft_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    for (int j = 0; j < 2; j++) e[j] = (h * ((((((0.0012326388888888888 * k1[j]) + ((-0.0042527702905061394) * k3[j])) + (0.03697916666666667 * k4[j])) + ((-0.05086379716981132) * k5[j])) + (0.0419047619047619 * k6[j])) + ((-0.025) * k7[j])));
    /* error ratios; the caller reduces them to the norm */
    for (int j = 0; j < 2; j++) {
        const double a = fabs(y[j]);
        const double b = fabs(y_new[j]);
        ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));
    }
    return 0;
}

static int robot_sensitivity_rhs(const double *blk, const double *x, double *k)
{
    const double *const dp = blk + 14;
    const double alpha = x[2];
    const double theta = (x[2] - x[5]);
    const double dx = x[6];
    const double dy = x[7];
    const double da = x[8];
    const double dth = (x[8] - x[11]);
    const double l1 = blk[0];
    const double l2 = blk[1];
    const double r = blk[2];
    const double xB = blk[3];
    const double yB = blk[4];
    const double xF = blk[5];
    const double yF = blk[6];
    const double mc = blk[7];
    const double mp = blk[8];
    const double Ic = blk[9];
    const double Ip = blk[10];
    const double Ia = blk[11];
    const double bw = blk[12];
    const double bp = blk[13];
    if (isinf(alpha)) return 2;
    const double ca = cos(alpha);
    const double sa = sin(alpha);
    if (isinf(theta)) return 2;
    const double ct = cos(theta);
    const double st = sin(theta);
    const double t0 = (ct * l1);
    const double t1 = (l2 * st);
    const double t2 = (t0 - t1);
    if (r == 0.0) return 1;
    const double t3 = (1.0 / r);
    const double t4 = (t2 * t3);
    if (l1 == 0.0) return 1;
    const double t5 = (1.0 / l1);
    const double t6 = (Ia * t5);
    const double t7 = (ct * l2);
    const double t8 = (l1 * st);
    const double t9 = (t7 - t8);
    if (l2 == 0.0) return 1;
    const double t10 = (r / l2);
    const double t11 = ((1.0 / 2.0) * t10);
    const double w0 = (mc + mp);
    const double t12 = (t11 * w0);
    const double t13 = (ca * yF);
    const double t14 = (ct * yB);
    const double t15 = (st * xB);
    const double t16 = (sa * xF);
    const double w1 = (mc * t14);
    const double w2 = (mc * t15);
    const double w3 = (w1 + w2);
    const double w4 = (mp * t13);
    const double w5 = (w3 + w4);
    const double w6 = (mp * t16);
    const double t17 = (w5 + w6);
    const double t18 = (t11 * t17);
    const double t19 = (t0 + t1);
    const double t20 = (ct * xB);
    const double t21 = (st * yB);
    const double t22 = (t20 - t21);
    const double t23 = (mc * t22);
    const double t24 = (t19 * t23);
    const double t25 = (t14 + t15);
    const double t26 = (mc * t25);
    const double t27 = (t26 * t9);
    const double w7 = (xB * xB);
    const double w8 = (yB * yB);
    const double w9 = (w7 + w8);
    const double w10 = (mc * w9);
    const double t28 = (Ic + w10);
    const double t29 = (t11 * t5);
    const double w11 = (t24 - t27);
    const double w12 = (w11 + t28);
    const double t30 = (t29 * w12);
    const double t31 = (t7 + t8);
    const double t32 = (t3 * t6);
    const double t33 = (ca * xF);
    const double t34 = (sa * yF);
    const double w13 = (mc * t20);
    const double w14 = (mc * t21);
    const double w15 = (w13 - w14);
    const double w16 = (mp * t33);
    const double w17 = (w15 + w16);
    const double w18 = (mp * t34);
    const double t35 = (w17 - w18);
    const double t36 = (t11 * t35);
    const double w19 = (xF * xF);
    const double w20 = (yF * yF);
    const double w21 = (w19 + w20);
    const double w22 = (mp * w21);
    const double t37 = (Ip + w22);
    const double w23 = (t2 * t23);
    const double w24 = (t26 * t31);
    const double w25 = (w23 + w24);
    const double w26 = (w25 + t28);
    const double t38 = (t29 * w26);
    const double t39 = (t13 + t16);
    const double t40 = (t33 - t34);
    const double t41 = (blk[50] * t11);
    const double t42 = (blk[49] * t11);
    const double w27 = (da * da);
    const double w28 = (w27 * mp);
    const double t43 = (w28 * t11);
    const double t44 = (2.0 * bw);
    const double t45 = (dth * t31);
    const double t46 = ((2.0 * Ia) * t3);
    const double t47 = (dth * t10);
    const double t48 = (t28 * t47);
    const double t49 = (ct * t48);
    const double w29 = (ct * t22);
    const double w30 = (st * t25);
    const double t50 = (w29 - w30);
    const double t51 = (-t50);
    const double t52 = (mc * t47);
    const double t53 = (t19 * t52);
    const double t54 = (ct * t25);
    const double w31 = (st * t22);
    const double t55 = (w31 + t54);
    const double t56 = (t52 * t9);
    const double t57 = ((1.0 / 2.0) * t5);
    const double t58 = (dx * t57);
    const double t59 = (st * t48);
    const double w32 = (st * t22);
    const double t60 = (w32 + t54);
    const double t61 = (dy * t57);
    const double t62 = (t3 * t44);
    const double t63 = (dth * t46);
    const double w33 = (mc * t10);
    const double t64 = (w33 * t45);
    const double t65 = (t2 * t52);
    const double t66 = (bp * t5);
    const double w34 = (-st);
    const double w35 = (w34 * t30);
    const double w36 = (t12 * t9);
    const double w37 = (w35 + w36);
    const double w38 = (w37 - t18);
    const double w39 = (t4 * t6);
    const double m00 = (w38 + w39);
    const double w40 = (ct * t30);
    const double w41 = (t12 * t19);
    const double w42 = (w40 + w41);
    const double w43 = (t31 * t32);
    const double w44 = (w42 + w43);
    const double m01 = (w44 + t36);
    const double w45 = (-t17);
    const double w46 = (w45 * t9);
    const double w47 = (t19 * t35);
    const double w48 = (w46 + w47);
    const double w49 = (w48 - t24);
    const double w50 = (w49 + t27);
    const double w51 = (w50 + t37);
    const double m02 = (t11 * w51);
    const double w52 = (st * t38);
    const double w53 = (t12 * t31);
    const double w54 = (w52 + w53);
    const double w55 = (w54 + t18);
    const double w56 = (t19 * t32);
    const double m10 = (w55 + w56);
    const double w57 = (-ct);
    const double w58 = (w57 * t38);
    const double w59 = (t12 * t2);
    const double w60 = (w58 - w59);
    const double w61 = (t32 * t9);
    const double w62 = (w60 - w61);
    const double m11 = (w62 - t36);
    const double w63 = (mc * t2);
    const double w64 = (w63 * t22);
    const double w65 = (mc * t25);
    const double w66 = (w65 * t31);
    const double w67 = (w64 + w66);
    const double w68 = (t17 * t31);
    const double w69 = (w67 - w68);
    const double w70 = (t2 * t35);
    const double w71 = (w69 - w70);
    const double w72 = (w71 - t37);
    const double m12 = (t11 * w72);
    const double w73 = (-mp);
    const double m20 = (w73 * t39);
    const double m21 = (mp * t40);
    const double m22 = t37;
    const double w74 = (t19 * t41);
    const double w75 = (t42 * t9);
    const double w76 = (w74 + w75);
    const double w77 = (t19 * t39);
    const double w78 = (t40 * t9);
    const double w79 = (w77 + w78);
    const double w80 = (t43 * w79);
    const double w81 = (w76 + w80);
    const double w82 = (t4 * t44);
    const double w83 = (t45 * t46);
    const double w84 = (w82 - w83);
    const double w85 = (w84 - t49);
    const double w86 = (t51 * t53);
    const double w87 = (w85 + w86);
    const double w88 = (t55 * t56);
    const double w89 = (w87 + w88);
    const double w90 = (t58 * w89);
    const double w91 = (w81 - w90);
    const double w92 = ((2.0 * Ia) * dth);
    const double w93 = (w92 * t2);
    const double w94 = (w93 * t3);
    const double w95 = (((2.0 * bw) * t3) * t31);
    const double w96 = (w94 + w95);
    const double w97 = (t50 * t56);
    const double w98 = (w96 - w97);
    const double w99 = (t53 * t60);
    const double w100 = (w98 - w99);
    const double w101 = (w100 - t59);
    const double w102 = (t61 * w101);
    const double w103 = (w91 - w102);
    const double b0 = (w103 + blk[46]);
    const double w104 = (-t2);
    const double w105 = (w104 * t41);
    const double w106 = (t31 * t42);
    const double w107 = (w105 + w106);
    const double w108 = (-t2);
    const double w109 = (w108 * t39);
    const double w110 = (t31 * t40);
    const double w111 = (w109 + w110);
    const double w112 = (t43 * w111);
    const double w113 = (w107 + w112);
    const double w114 = (t19 * t62);
    const double w115 = (w114 + t49);
    const double w116 = (t51 * t65);
    const double w117 = (w115 - w116);
    const double w118 = (t55 * t64);
    const double w119 = (w117 + w118);
    const double w120 = (t63 * t9);
    const double w121 = (w119 + w120);
    const double w122 = (t58 * w121);
    const double w123 = (w113 - w122);
    const double w124 = (t19 * t63);
    const double w125 = (t50 * t64);
    const double w126 = (w124 - w125);
    const double w127 = (w126 + t59);
    const double w128 = (t60 * t65);
    const double w129 = (w127 + w128);
    const double w130 = (t62 * t9);
    const double w131 = (w129 - w130);
    const double w132 = (t61 * w131);
    const double w133 = (w123 - w132);
    const double b1 = (w133 + blk[47]);
    const double w134 = ((-bp) * da);
    const double w135 = (ct * dy);
    const double w136 = (w135 * t66);
    const double w137 = (w134 + w136);
    const double w138 = (dx * st);
    const double w139 = (w138 * t66);
    const double w140 = (w137 - w139);
    const double b2 = (w140 + blk[48]);
    const double w141 = (m11 * m22);
    const double w142 = (m12 * m21);
    const double a00 = (w141 - w142);
    const double w143 = (m02 * m21);
    const double w144 = (m01 * m22);
    const double a01 = (w143 - w144);
    const double w145 = (m01 * m12);
    const double w146 = (m02 * m11);
    const double a02 = (w145 - w146);
    const double w147 = (m12 * m20);
    const double w148 = (m10 * m22);
    const double a10 = (w147 - w148);
    const double w149 = (m00 * m22);
    const double w150 = (m02 * m20);
    const double a11 = (w149 - w150);
    const double w151 = (m02 * m10);
    const double w152 = (m00 * m12);
    const double a12 = (w151 - w152);
    const double w153 = (m10 * m21);
    const double w154 = (m11 * m20);
    const double a20 = (w153 - w154);
    const double w155 = (m01 * m20);
    const double w156 = (m00 * m21);
    const double a21 = (w155 - w156);
    const double w157 = (m00 * m11);
    const double w158 = (m01 * m10);
    const double a22 = (w157 - w158);
    const double w159 = (m00 * a00);
    const double w160 = (m01 * a10);
    const double w161 = (w159 + w160);
    const double w162 = (m02 * a20);
    const double w163 = (w161 + w162);
    if (w163 == 0.0) return 1;
    const double inv_det = (1.0 / w163);
    const double ddx = ((((a00 * b0) + (a01 * b1)) + (a02 * b2)) * inv_det);
    const double ddy = ((((a10 * b0) + (a11 * b1)) + (a12 * b2)) * inv_det);
    const double dda = ((((a20 * b0) + (a21 * b1)) + (a22 * b2)) * inv_det);
    const double s0 = (ct * l2);
    const double s1 = (l1 * st);
    const double s2 = (s0 + s1);
    const double s3 = (ct * l1);
    const double s4 = (l2 * st);
    const double s5 = (s3 - s4);
    const double s6 = (dth * dx);
    const double s7 = (dth * dy);
    const double s8 = (1.0 / l1);
    const double s9 = (s8 / r);
    const double s10 = (s3 + s4);
    const double s11 = (s0 - s1);
    const double s12 = (s8 * st);
    const double s13 = (ct * s8);
    const double w164 = (ddx * s5);
    const double w165 = (ddy * s2);
    const double w166 = (w164 + w165);
    const double w167 = (s2 * s6);
    const double w168 = (w166 - w167);
    const double w169 = (s5 * s7);
    const double w170 = (w168 + w169);
    const double ddphi_r = (s9 * w170);
    const double w171 = (ddx * s10);
    const double w172 = (ddy * s11);
    const double w173 = (w171 - w172);
    const double w174 = (s10 * s7);
    const double w175 = (w173 + w174);
    const double w176 = (s11 * s6);
    const double w177 = (w175 + w176);
    const double ddphi_l = (s9 * w177);
    const double w178 = (ddx * s12);
    const double w179 = (dda + w178);
    const double w180 = (ddy * s13);
    const double w181 = (w179 - w180);
    const double w182 = (s12 * s7);
    const double w183 = (w181 + w182);
    const double w184 = (s13 * s6);
    const double ddphi_p = (w183 + w184);
    const lanes2 theta_d01 = ((lanes2){x[20], x[21]} - (lanes2){x[32], x[33]});
    const lanes2 theta_d23 = ((lanes2){x[22], x[23]} - (lanes2){x[34], x[35]});
    const lanes2 dth_d01 = ((lanes2){x[44], x[45]} - (lanes2){x[56], x[57]});
    const lanes2 dth_d23 = ((lanes2){x[46], x[47]} - (lanes2){x[58], x[59]});
    const lanes2 ca_d01 = ((-sa) * (lanes2){x[20], x[21]});
    const lanes2 ca_d23 = ((-sa) * (lanes2){x[22], x[23]});
    const lanes2 sa_d01 = (ca * (lanes2){x[20], x[21]});
    const lanes2 sa_d23 = (ca * (lanes2){x[22], x[23]});
    const lanes2 ct_d01 = ((-st) * theta_d01);
    const lanes2 ct_d23 = ((-st) * theta_d23);
    const lanes2 st_d01 = (ct * theta_d01);
    const lanes2 st_d23 = (ct * theta_d23);
    const lanes2 t0_d01 = (ct_d01 * l1);
    const lanes2 t0_d23 = (ct_d23 * l1);
    const lanes2 t1_d01 = (l2 * st_d01);
    const lanes2 t1_d23 = (l2 * st_d23);
    const lanes2 t2_d01 = (t0_d01 - t1_d01);
    const lanes2 t2_d23 = (t0_d23 - t1_d23);
    const lanes2 t4_d01 = (t2_d01 * t3);
    const lanes2 t4_d23 = (t2_d23 * t3);
    const lanes2 t7_d01 = (ct_d01 * l2);
    const lanes2 t7_d23 = (ct_d23 * l2);
    const lanes2 t8_d01 = (l1 * st_d01);
    const lanes2 t8_d23 = (l1 * st_d23);
    const lanes2 t9_d01 = (t7_d01 - t8_d01);
    const lanes2 t9_d23 = (t7_d23 - t8_d23);
    const lanes2 w0_d01 = ((lanes2){dp[0], dp[1]} + (lanes2){dp[16], dp[17]});
    const lanes2 w0_d23 = ((lanes2){dp[2], dp[3]} + (lanes2){dp[18], dp[19]});
    const lanes2 t12_d01 = (t11 * w0_d01);
    const lanes2 t12_d23 = (t11 * w0_d23);
    const lanes2 t13_d01 = ((ca_d01 * yF) + (ca * (lanes2){dp[28], dp[29]}));
    const lanes2 t13_d23 = ((ca_d23 * yF) + (ca * (lanes2){dp[30], dp[31]}));
    const lanes2 t14_d01 = ((ct_d01 * yB) + (ct * (lanes2){dp[12], dp[13]}));
    const lanes2 t14_d23 = ((ct_d23 * yB) + (ct * (lanes2){dp[14], dp[15]}));
    const lanes2 t15_d01 = ((st_d01 * xB) + (st * (lanes2){dp[8], dp[9]}));
    const lanes2 t15_d23 = ((st_d23 * xB) + (st * (lanes2){dp[10], dp[11]}));
    const lanes2 t16_d01 = ((sa_d01 * xF) + (sa * (lanes2){dp[24], dp[25]}));
    const lanes2 t16_d23 = ((sa_d23 * xF) + (sa * (lanes2){dp[26], dp[27]}));
    const lanes2 w1_d01 = (((lanes2){dp[0], dp[1]} * t14) + (mc * t14_d01));
    const lanes2 w1_d23 = (((lanes2){dp[2], dp[3]} * t14) + (mc * t14_d23));
    const lanes2 w2_d01 = (((lanes2){dp[0], dp[1]} * t15) + (mc * t15_d01));
    const lanes2 w2_d23 = (((lanes2){dp[2], dp[3]} * t15) + (mc * t15_d23));
    const lanes2 w3_d01 = (w1_d01 + w2_d01);
    const lanes2 w3_d23 = (w1_d23 + w2_d23);
    const lanes2 w4_d01 = (((lanes2){dp[16], dp[17]} * t13) + (mp * t13_d01));
    const lanes2 w4_d23 = (((lanes2){dp[18], dp[19]} * t13) + (mp * t13_d23));
    const lanes2 w5_d01 = (w3_d01 + w4_d01);
    const lanes2 w5_d23 = (w3_d23 + w4_d23);
    const lanes2 w6_d01 = (((lanes2){dp[16], dp[17]} * t16) + (mp * t16_d01));
    const lanes2 w6_d23 = (((lanes2){dp[18], dp[19]} * t16) + (mp * t16_d23));
    const lanes2 t17_d01 = (w5_d01 + w6_d01);
    const lanes2 t17_d23 = (w5_d23 + w6_d23);
    const lanes2 t18_d01 = (t11 * t17_d01);
    const lanes2 t18_d23 = (t11 * t17_d23);
    const lanes2 t19_d01 = (t0_d01 + t1_d01);
    const lanes2 t19_d23 = (t0_d23 + t1_d23);
    const lanes2 t20_d01 = ((ct_d01 * xB) + (ct * (lanes2){dp[8], dp[9]}));
    const lanes2 t20_d23 = ((ct_d23 * xB) + (ct * (lanes2){dp[10], dp[11]}));
    const lanes2 t21_d01 = ((st_d01 * yB) + (st * (lanes2){dp[12], dp[13]}));
    const lanes2 t21_d23 = ((st_d23 * yB) + (st * (lanes2){dp[14], dp[15]}));
    const lanes2 t22_d01 = (t20_d01 - t21_d01);
    const lanes2 t22_d23 = (t20_d23 - t21_d23);
    const lanes2 t23_d01 = (((lanes2){dp[0], dp[1]} * t22) + (mc * t22_d01));
    const lanes2 t23_d23 = (((lanes2){dp[2], dp[3]} * t22) + (mc * t22_d23));
    const lanes2 t24_d01 = ((t19_d01 * t23) + (t19 * t23_d01));
    const lanes2 t24_d23 = ((t19_d23 * t23) + (t19 * t23_d23));
    const lanes2 t25_d01 = (t14_d01 + t15_d01);
    const lanes2 t25_d23 = (t14_d23 + t15_d23);
    const lanes2 t26_d01 = (((lanes2){dp[0], dp[1]} * t25) + (mc * t25_d01));
    const lanes2 t26_d23 = (((lanes2){dp[2], dp[3]} * t25) + (mc * t25_d23));
    const lanes2 t27_d01 = ((t26_d01 * t9) + (t26 * t9_d01));
    const lanes2 t27_d23 = ((t26_d23 * t9) + (t26 * t9_d23));
    const lanes2 w7_d01 = (((lanes2){dp[8], dp[9]} * xB) + (xB * (lanes2){dp[8], dp[9]}));
    const lanes2 w7_d23 = (((lanes2){dp[10], dp[11]} * xB) + (xB * (lanes2){dp[10], dp[11]}));
    const lanes2 w8_d01 = (((lanes2){dp[12], dp[13]} * yB) + (yB * (lanes2){dp[12], dp[13]}));
    const lanes2 w8_d23 = (((lanes2){dp[14], dp[15]} * yB) + (yB * (lanes2){dp[14], dp[15]}));
    const lanes2 w9_d01 = (w7_d01 + w8_d01);
    const lanes2 w9_d23 = (w7_d23 + w8_d23);
    const lanes2 w10_d01 = (((lanes2){dp[0], dp[1]} * w9) + (mc * w9_d01));
    const lanes2 w10_d23 = (((lanes2){dp[2], dp[3]} * w9) + (mc * w9_d23));
    const lanes2 t28_d01 = ((lanes2){dp[4], dp[5]} + w10_d01);
    const lanes2 t28_d23 = ((lanes2){dp[6], dp[7]} + w10_d23);
    const lanes2 w11_d01 = (t24_d01 - t27_d01);
    const lanes2 w11_d23 = (t24_d23 - t27_d23);
    const lanes2 w12_d01 = (w11_d01 + t28_d01);
    const lanes2 w12_d23 = (w11_d23 + t28_d23);
    const lanes2 t30_d01 = (t29 * w12_d01);
    const lanes2 t30_d23 = (t29 * w12_d23);
    const lanes2 t31_d01 = (t7_d01 + t8_d01);
    const lanes2 t31_d23 = (t7_d23 + t8_d23);
    const lanes2 t33_d01 = ((ca_d01 * xF) + (ca * (lanes2){dp[24], dp[25]}));
    const lanes2 t33_d23 = ((ca_d23 * xF) + (ca * (lanes2){dp[26], dp[27]}));
    const lanes2 t34_d01 = ((sa_d01 * yF) + (sa * (lanes2){dp[28], dp[29]}));
    const lanes2 t34_d23 = ((sa_d23 * yF) + (sa * (lanes2){dp[30], dp[31]}));
    const lanes2 w13_d01 = (((lanes2){dp[0], dp[1]} * t20) + (mc * t20_d01));
    const lanes2 w13_d23 = (((lanes2){dp[2], dp[3]} * t20) + (mc * t20_d23));
    const lanes2 w14_d01 = (((lanes2){dp[0], dp[1]} * t21) + (mc * t21_d01));
    const lanes2 w14_d23 = (((lanes2){dp[2], dp[3]} * t21) + (mc * t21_d23));
    const lanes2 w15_d01 = (w13_d01 - w14_d01);
    const lanes2 w15_d23 = (w13_d23 - w14_d23);
    const lanes2 w16_d01 = (((lanes2){dp[16], dp[17]} * t33) + (mp * t33_d01));
    const lanes2 w16_d23 = (((lanes2){dp[18], dp[19]} * t33) + (mp * t33_d23));
    const lanes2 w17_d01 = (w15_d01 + w16_d01);
    const lanes2 w17_d23 = (w15_d23 + w16_d23);
    const lanes2 w18_d01 = (((lanes2){dp[16], dp[17]} * t34) + (mp * t34_d01));
    const lanes2 w18_d23 = (((lanes2){dp[18], dp[19]} * t34) + (mp * t34_d23));
    const lanes2 t35_d01 = (w17_d01 - w18_d01);
    const lanes2 t35_d23 = (w17_d23 - w18_d23);
    const lanes2 t36_d01 = (t11 * t35_d01);
    const lanes2 t36_d23 = (t11 * t35_d23);
    const lanes2 w19_d01 = (((lanes2){dp[24], dp[25]} * xF) + (xF * (lanes2){dp[24], dp[25]}));
    const lanes2 w19_d23 = (((lanes2){dp[26], dp[27]} * xF) + (xF * (lanes2){dp[26], dp[27]}));
    const lanes2 w20_d01 = (((lanes2){dp[28], dp[29]} * yF) + (yF * (lanes2){dp[28], dp[29]}));
    const lanes2 w20_d23 = (((lanes2){dp[30], dp[31]} * yF) + (yF * (lanes2){dp[30], dp[31]}));
    const lanes2 w21_d01 = (w19_d01 + w20_d01);
    const lanes2 w21_d23 = (w19_d23 + w20_d23);
    const lanes2 w22_d01 = (((lanes2){dp[16], dp[17]} * w21) + (mp * w21_d01));
    const lanes2 w22_d23 = (((lanes2){dp[18], dp[19]} * w21) + (mp * w21_d23));
    const lanes2 t37_d01 = ((lanes2){dp[20], dp[21]} + w22_d01);
    const lanes2 t37_d23 = ((lanes2){dp[22], dp[23]} + w22_d23);
    const lanes2 w23_d01 = ((t2_d01 * t23) + (t2 * t23_d01));
    const lanes2 w23_d23 = ((t2_d23 * t23) + (t2 * t23_d23));
    const lanes2 w24_d01 = ((t26_d01 * t31) + (t26 * t31_d01));
    const lanes2 w24_d23 = ((t26_d23 * t31) + (t26 * t31_d23));
    const lanes2 w25_d01 = (w23_d01 + w24_d01);
    const lanes2 w25_d23 = (w23_d23 + w24_d23);
    const lanes2 w26_d01 = (w25_d01 + t28_d01);
    const lanes2 w26_d23 = (w25_d23 + t28_d23);
    const lanes2 t38_d01 = (t29 * w26_d01);
    const lanes2 t38_d23 = (t29 * w26_d23);
    const lanes2 t39_d01 = (t13_d01 + t16_d01);
    const lanes2 t39_d23 = (t13_d23 + t16_d23);
    const lanes2 t40_d01 = (t33_d01 - t34_d01);
    const lanes2 t40_d23 = (t33_d23 - t34_d23);
    const lanes2 w27_d01 = (((lanes2){x[44], x[45]} * da) + (da * (lanes2){x[44], x[45]}));
    const lanes2 w27_d23 = (((lanes2){x[46], x[47]} * da) + (da * (lanes2){x[46], x[47]}));
    const lanes2 w28_d01 = ((w27_d01 * mp) + (w27 * (lanes2){dp[16], dp[17]}));
    const lanes2 w28_d23 = ((w27_d23 * mp) + (w27 * (lanes2){dp[18], dp[19]}));
    const lanes2 t43_d01 = (w28_d01 * t11);
    const lanes2 t43_d23 = (w28_d23 * t11);
    const lanes2 t45_d01 = ((dth_d01 * t31) + (dth * t31_d01));
    const lanes2 t45_d23 = ((dth_d23 * t31) + (dth * t31_d23));
    const lanes2 t47_d01 = (dth_d01 * t10);
    const lanes2 t47_d23 = (dth_d23 * t10);
    const lanes2 t48_d01 = ((t28_d01 * t47) + (t28 * t47_d01));
    const lanes2 t48_d23 = ((t28_d23 * t47) + (t28 * t47_d23));
    const lanes2 t49_d01 = ((ct_d01 * t48) + (ct * t48_d01));
    const lanes2 t49_d23 = ((ct_d23 * t48) + (ct * t48_d23));
    const lanes2 w29_d01 = ((ct_d01 * t22) + (ct * t22_d01));
    const lanes2 w29_d23 = ((ct_d23 * t22) + (ct * t22_d23));
    const lanes2 w30_d01 = ((st_d01 * t25) + (st * t25_d01));
    const lanes2 w30_d23 = ((st_d23 * t25) + (st * t25_d23));
    const lanes2 t50_d01 = (w29_d01 - w30_d01);
    const lanes2 t50_d23 = (w29_d23 - w30_d23);
    const lanes2 t51_d01 = (-t50_d01);
    const lanes2 t51_d23 = (-t50_d23);
    const lanes2 t52_d01 = (((lanes2){dp[0], dp[1]} * t47) + (mc * t47_d01));
    const lanes2 t52_d23 = (((lanes2){dp[2], dp[3]} * t47) + (mc * t47_d23));
    const lanes2 t53_d01 = ((t19_d01 * t52) + (t19 * t52_d01));
    const lanes2 t53_d23 = ((t19_d23 * t52) + (t19 * t52_d23));
    const lanes2 t54_d01 = ((ct_d01 * t25) + (ct * t25_d01));
    const lanes2 t54_d23 = ((ct_d23 * t25) + (ct * t25_d23));
    const lanes2 w31_d01 = ((st_d01 * t22) + (st * t22_d01));
    const lanes2 w31_d23 = ((st_d23 * t22) + (st * t22_d23));
    const lanes2 t55_d01 = (w31_d01 + t54_d01);
    const lanes2 t55_d23 = (w31_d23 + t54_d23);
    const lanes2 t56_d01 = ((t52_d01 * t9) + (t52 * t9_d01));
    const lanes2 t56_d23 = ((t52_d23 * t9) + (t52 * t9_d23));
    const lanes2 t58_d01 = ((lanes2){x[36], x[37]} * t57);
    const lanes2 t58_d23 = ((lanes2){x[38], x[39]} * t57);
    const lanes2 t59_d01 = ((st_d01 * t48) + (st * t48_d01));
    const lanes2 t59_d23 = ((st_d23 * t48) + (st * t48_d23));
    const lanes2 w32_d01 = ((st_d01 * t22) + (st * t22_d01));
    const lanes2 w32_d23 = ((st_d23 * t22) + (st * t22_d23));
    const lanes2 t60_d01 = (w32_d01 + t54_d01);
    const lanes2 t60_d23 = (w32_d23 + t54_d23);
    const lanes2 t61_d01 = ((lanes2){x[40], x[41]} * t57);
    const lanes2 t61_d23 = ((lanes2){x[42], x[43]} * t57);
    const lanes2 t63_d01 = (dth_d01 * t46);
    const lanes2 t63_d23 = (dth_d23 * t46);
    const lanes2 w33_d01 = ((lanes2){dp[0], dp[1]} * t10);
    const lanes2 w33_d23 = ((lanes2){dp[2], dp[3]} * t10);
    const lanes2 t64_d01 = ((w33_d01 * t45) + (w33 * t45_d01));
    const lanes2 t64_d23 = ((w33_d23 * t45) + (w33 * t45_d23));
    const lanes2 t65_d01 = ((t2_d01 * t52) + (t2 * t52_d01));
    const lanes2 t65_d23 = ((t2_d23 * t52) + (t2 * t52_d23));
    const lanes2 w34_d01 = (-st_d01);
    const lanes2 w34_d23 = (-st_d23);
    const lanes2 w35_d01 = ((w34_d01 * t30) + (w34 * t30_d01));
    const lanes2 w35_d23 = ((w34_d23 * t30) + (w34 * t30_d23));
    const lanes2 w36_d01 = ((t12_d01 * t9) + (t12 * t9_d01));
    const lanes2 w36_d23 = ((t12_d23 * t9) + (t12 * t9_d23));
    const lanes2 w37_d01 = (w35_d01 + w36_d01);
    const lanes2 w37_d23 = (w35_d23 + w36_d23);
    const lanes2 w38_d01 = (w37_d01 - t18_d01);
    const lanes2 w38_d23 = (w37_d23 - t18_d23);
    const lanes2 w39_d01 = (t4_d01 * t6);
    const lanes2 w39_d23 = (t4_d23 * t6);
    const lanes2 m00_d01 = (w38_d01 + w39_d01);
    const lanes2 m00_d23 = (w38_d23 + w39_d23);
    const lanes2 w40_d01 = ((ct_d01 * t30) + (ct * t30_d01));
    const lanes2 w40_d23 = ((ct_d23 * t30) + (ct * t30_d23));
    const lanes2 w41_d01 = ((t12_d01 * t19) + (t12 * t19_d01));
    const lanes2 w41_d23 = ((t12_d23 * t19) + (t12 * t19_d23));
    const lanes2 w42_d01 = (w40_d01 + w41_d01);
    const lanes2 w42_d23 = (w40_d23 + w41_d23);
    const lanes2 w43_d01 = (t31_d01 * t32);
    const lanes2 w43_d23 = (t31_d23 * t32);
    const lanes2 w44_d01 = (w42_d01 + w43_d01);
    const lanes2 w44_d23 = (w42_d23 + w43_d23);
    const lanes2 m01_d01 = (w44_d01 + t36_d01);
    const lanes2 m01_d23 = (w44_d23 + t36_d23);
    const lanes2 w45_d01 = (-t17_d01);
    const lanes2 w45_d23 = (-t17_d23);
    const lanes2 w46_d01 = ((w45_d01 * t9) + (w45 * t9_d01));
    const lanes2 w46_d23 = ((w45_d23 * t9) + (w45 * t9_d23));
    const lanes2 w47_d01 = ((t19_d01 * t35) + (t19 * t35_d01));
    const lanes2 w47_d23 = ((t19_d23 * t35) + (t19 * t35_d23));
    const lanes2 w48_d01 = (w46_d01 + w47_d01);
    const lanes2 w48_d23 = (w46_d23 + w47_d23);
    const lanes2 w49_d01 = (w48_d01 - t24_d01);
    const lanes2 w49_d23 = (w48_d23 - t24_d23);
    const lanes2 w50_d01 = (w49_d01 + t27_d01);
    const lanes2 w50_d23 = (w49_d23 + t27_d23);
    const lanes2 w51_d01 = (w50_d01 + t37_d01);
    const lanes2 w51_d23 = (w50_d23 + t37_d23);
    const lanes2 m02_d01 = (t11 * w51_d01);
    const lanes2 m02_d23 = (t11 * w51_d23);
    const lanes2 w52_d01 = ((st_d01 * t38) + (st * t38_d01));
    const lanes2 w52_d23 = ((st_d23 * t38) + (st * t38_d23));
    const lanes2 w53_d01 = ((t12_d01 * t31) + (t12 * t31_d01));
    const lanes2 w53_d23 = ((t12_d23 * t31) + (t12 * t31_d23));
    const lanes2 w54_d01 = (w52_d01 + w53_d01);
    const lanes2 w54_d23 = (w52_d23 + w53_d23);
    const lanes2 w55_d01 = (w54_d01 + t18_d01);
    const lanes2 w55_d23 = (w54_d23 + t18_d23);
    const lanes2 w56_d01 = (t19_d01 * t32);
    const lanes2 w56_d23 = (t19_d23 * t32);
    const lanes2 m10_d01 = (w55_d01 + w56_d01);
    const lanes2 m10_d23 = (w55_d23 + w56_d23);
    const lanes2 w57_d01 = (-ct_d01);
    const lanes2 w57_d23 = (-ct_d23);
    const lanes2 w58_d01 = ((w57_d01 * t38) + (w57 * t38_d01));
    const lanes2 w58_d23 = ((w57_d23 * t38) + (w57 * t38_d23));
    const lanes2 w59_d01 = ((t12_d01 * t2) + (t12 * t2_d01));
    const lanes2 w59_d23 = ((t12_d23 * t2) + (t12 * t2_d23));
    const lanes2 w60_d01 = (w58_d01 - w59_d01);
    const lanes2 w60_d23 = (w58_d23 - w59_d23);
    const lanes2 w61_d01 = (t32 * t9_d01);
    const lanes2 w61_d23 = (t32 * t9_d23);
    const lanes2 w62_d01 = (w60_d01 - w61_d01);
    const lanes2 w62_d23 = (w60_d23 - w61_d23);
    const lanes2 m11_d01 = (w62_d01 - t36_d01);
    const lanes2 m11_d23 = (w62_d23 - t36_d23);
    const lanes2 w63_d01 = (((lanes2){dp[0], dp[1]} * t2) + (mc * t2_d01));
    const lanes2 w63_d23 = (((lanes2){dp[2], dp[3]} * t2) + (mc * t2_d23));
    const lanes2 w64_d01 = ((w63_d01 * t22) + (w63 * t22_d01));
    const lanes2 w64_d23 = ((w63_d23 * t22) + (w63 * t22_d23));
    const lanes2 w65_d01 = (((lanes2){dp[0], dp[1]} * t25) + (mc * t25_d01));
    const lanes2 w65_d23 = (((lanes2){dp[2], dp[3]} * t25) + (mc * t25_d23));
    const lanes2 w66_d01 = ((w65_d01 * t31) + (w65 * t31_d01));
    const lanes2 w66_d23 = ((w65_d23 * t31) + (w65 * t31_d23));
    const lanes2 w67_d01 = (w64_d01 + w66_d01);
    const lanes2 w67_d23 = (w64_d23 + w66_d23);
    const lanes2 w68_d01 = ((t17_d01 * t31) + (t17 * t31_d01));
    const lanes2 w68_d23 = ((t17_d23 * t31) + (t17 * t31_d23));
    const lanes2 w69_d01 = (w67_d01 - w68_d01);
    const lanes2 w69_d23 = (w67_d23 - w68_d23);
    const lanes2 w70_d01 = ((t2_d01 * t35) + (t2 * t35_d01));
    const lanes2 w70_d23 = ((t2_d23 * t35) + (t2 * t35_d23));
    const lanes2 w71_d01 = (w69_d01 - w70_d01);
    const lanes2 w71_d23 = (w69_d23 - w70_d23);
    const lanes2 w72_d01 = (w71_d01 - t37_d01);
    const lanes2 w72_d23 = (w71_d23 - t37_d23);
    const lanes2 m12_d01 = (t11 * w72_d01);
    const lanes2 m12_d23 = (t11 * w72_d23);
    const lanes2 w73_d01 = (-(lanes2){dp[16], dp[17]});
    const lanes2 w73_d23 = (-(lanes2){dp[18], dp[19]});
    const lanes2 m20_d01 = ((w73_d01 * t39) + (w73 * t39_d01));
    const lanes2 m20_d23 = ((w73_d23 * t39) + (w73 * t39_d23));
    const lanes2 m21_d01 = (((lanes2){dp[16], dp[17]} * t40) + (mp * t40_d01));
    const lanes2 m21_d23 = (((lanes2){dp[18], dp[19]} * t40) + (mp * t40_d23));
    const lanes2 w74_d01 = (t19_d01 * t41);
    const lanes2 w74_d23 = (t19_d23 * t41);
    const lanes2 w75_d01 = (t42 * t9_d01);
    const lanes2 w75_d23 = (t42 * t9_d23);
    const lanes2 w76_d01 = (w74_d01 + w75_d01);
    const lanes2 w76_d23 = (w74_d23 + w75_d23);
    const lanes2 w77_d01 = ((t19_d01 * t39) + (t19 * t39_d01));
    const lanes2 w77_d23 = ((t19_d23 * t39) + (t19 * t39_d23));
    const lanes2 w78_d01 = ((t40_d01 * t9) + (t40 * t9_d01));
    const lanes2 w78_d23 = ((t40_d23 * t9) + (t40 * t9_d23));
    const lanes2 w79_d01 = (w77_d01 + w78_d01);
    const lanes2 w79_d23 = (w77_d23 + w78_d23);
    const lanes2 w80_d01 = ((t43_d01 * w79) + (t43 * w79_d01));
    const lanes2 w80_d23 = ((t43_d23 * w79) + (t43 * w79_d23));
    const lanes2 w81_d01 = (w76_d01 + w80_d01);
    const lanes2 w81_d23 = (w76_d23 + w80_d23);
    const lanes2 w82_d01 = (t4_d01 * t44);
    const lanes2 w82_d23 = (t4_d23 * t44);
    const lanes2 w83_d01 = (t45_d01 * t46);
    const lanes2 w83_d23 = (t45_d23 * t46);
    const lanes2 w84_d01 = (w82_d01 - w83_d01);
    const lanes2 w84_d23 = (w82_d23 - w83_d23);
    const lanes2 w85_d01 = (w84_d01 - t49_d01);
    const lanes2 w85_d23 = (w84_d23 - t49_d23);
    const lanes2 w86_d01 = ((t51_d01 * t53) + (t51 * t53_d01));
    const lanes2 w86_d23 = ((t51_d23 * t53) + (t51 * t53_d23));
    const lanes2 w87_d01 = (w85_d01 + w86_d01);
    const lanes2 w87_d23 = (w85_d23 + w86_d23);
    const lanes2 w88_d01 = ((t55_d01 * t56) + (t55 * t56_d01));
    const lanes2 w88_d23 = ((t55_d23 * t56) + (t55 * t56_d23));
    const lanes2 w89_d01 = (w87_d01 + w88_d01);
    const lanes2 w89_d23 = (w87_d23 + w88_d23);
    const lanes2 w90_d01 = ((t58_d01 * w89) + (t58 * w89_d01));
    const lanes2 w90_d23 = ((t58_d23 * w89) + (t58 * w89_d23));
    const lanes2 w91_d01 = (w81_d01 - w90_d01);
    const lanes2 w91_d23 = (w81_d23 - w90_d23);
    const lanes2 w92_d01 = ((2.0 * Ia) * dth_d01);
    const lanes2 w92_d23 = ((2.0 * Ia) * dth_d23);
    const lanes2 w93_d01 = ((w92_d01 * t2) + (w92 * t2_d01));
    const lanes2 w93_d23 = ((w92_d23 * t2) + (w92 * t2_d23));
    const lanes2 w94_d01 = (w93_d01 * t3);
    const lanes2 w94_d23 = (w93_d23 * t3);
    const lanes2 w95_d01 = (((2.0 * bw) * t3) * t31_d01);
    const lanes2 w95_d23 = (((2.0 * bw) * t3) * t31_d23);
    const lanes2 w96_d01 = (w94_d01 + w95_d01);
    const lanes2 w96_d23 = (w94_d23 + w95_d23);
    const lanes2 w97_d01 = ((t50_d01 * t56) + (t50 * t56_d01));
    const lanes2 w97_d23 = ((t50_d23 * t56) + (t50 * t56_d23));
    const lanes2 w98_d01 = (w96_d01 - w97_d01);
    const lanes2 w98_d23 = (w96_d23 - w97_d23);
    const lanes2 w99_d01 = ((t53_d01 * t60) + (t53 * t60_d01));
    const lanes2 w99_d23 = ((t53_d23 * t60) + (t53 * t60_d23));
    const lanes2 w100_d01 = (w98_d01 - w99_d01);
    const lanes2 w100_d23 = (w98_d23 - w99_d23);
    const lanes2 w101_d01 = (w100_d01 - t59_d01);
    const lanes2 w101_d23 = (w100_d23 - t59_d23);
    const lanes2 w102_d01 = ((t61_d01 * w101) + (t61 * w101_d01));
    const lanes2 w102_d23 = ((t61_d23 * w101) + (t61 * w101_d23));
    const lanes2 w103_d01 = (w91_d01 - w102_d01);
    const lanes2 w103_d23 = (w91_d23 - w102_d23);
    const lanes2 b0_d01 = w103_d01;
    const lanes2 b0_d23 = w103_d23;
    const lanes2 w104_d01 = (-t2_d01);
    const lanes2 w104_d23 = (-t2_d23);
    const lanes2 w105_d01 = (w104_d01 * t41);
    const lanes2 w105_d23 = (w104_d23 * t41);
    const lanes2 w106_d01 = (t31_d01 * t42);
    const lanes2 w106_d23 = (t31_d23 * t42);
    const lanes2 w107_d01 = (w105_d01 + w106_d01);
    const lanes2 w107_d23 = (w105_d23 + w106_d23);
    const lanes2 w108_d01 = (-t2_d01);
    const lanes2 w108_d23 = (-t2_d23);
    const lanes2 w109_d01 = ((w108_d01 * t39) + (w108 * t39_d01));
    const lanes2 w109_d23 = ((w108_d23 * t39) + (w108 * t39_d23));
    const lanes2 w110_d01 = ((t31_d01 * t40) + (t31 * t40_d01));
    const lanes2 w110_d23 = ((t31_d23 * t40) + (t31 * t40_d23));
    const lanes2 w111_d01 = (w109_d01 + w110_d01);
    const lanes2 w111_d23 = (w109_d23 + w110_d23);
    const lanes2 w112_d01 = ((t43_d01 * w111) + (t43 * w111_d01));
    const lanes2 w112_d23 = ((t43_d23 * w111) + (t43 * w111_d23));
    const lanes2 w113_d01 = (w107_d01 + w112_d01);
    const lanes2 w113_d23 = (w107_d23 + w112_d23);
    const lanes2 w114_d01 = (t19_d01 * t62);
    const lanes2 w114_d23 = (t19_d23 * t62);
    const lanes2 w115_d01 = (w114_d01 + t49_d01);
    const lanes2 w115_d23 = (w114_d23 + t49_d23);
    const lanes2 w116_d01 = ((t51_d01 * t65) + (t51 * t65_d01));
    const lanes2 w116_d23 = ((t51_d23 * t65) + (t51 * t65_d23));
    const lanes2 w117_d01 = (w115_d01 - w116_d01);
    const lanes2 w117_d23 = (w115_d23 - w116_d23);
    const lanes2 w118_d01 = ((t55_d01 * t64) + (t55 * t64_d01));
    const lanes2 w118_d23 = ((t55_d23 * t64) + (t55 * t64_d23));
    const lanes2 w119_d01 = (w117_d01 + w118_d01);
    const lanes2 w119_d23 = (w117_d23 + w118_d23);
    const lanes2 w120_d01 = ((t63_d01 * t9) + (t63 * t9_d01));
    const lanes2 w120_d23 = ((t63_d23 * t9) + (t63 * t9_d23));
    const lanes2 w121_d01 = (w119_d01 + w120_d01);
    const lanes2 w121_d23 = (w119_d23 + w120_d23);
    const lanes2 w122_d01 = ((t58_d01 * w121) + (t58 * w121_d01));
    const lanes2 w122_d23 = ((t58_d23 * w121) + (t58 * w121_d23));
    const lanes2 w123_d01 = (w113_d01 - w122_d01);
    const lanes2 w123_d23 = (w113_d23 - w122_d23);
    const lanes2 w124_d01 = ((t19_d01 * t63) + (t19 * t63_d01));
    const lanes2 w124_d23 = ((t19_d23 * t63) + (t19 * t63_d23));
    const lanes2 w125_d01 = ((t50_d01 * t64) + (t50 * t64_d01));
    const lanes2 w125_d23 = ((t50_d23 * t64) + (t50 * t64_d23));
    const lanes2 w126_d01 = (w124_d01 - w125_d01);
    const lanes2 w126_d23 = (w124_d23 - w125_d23);
    const lanes2 w127_d01 = (w126_d01 + t59_d01);
    const lanes2 w127_d23 = (w126_d23 + t59_d23);
    const lanes2 w128_d01 = ((t60_d01 * t65) + (t60 * t65_d01));
    const lanes2 w128_d23 = ((t60_d23 * t65) + (t60 * t65_d23));
    const lanes2 w129_d01 = (w127_d01 + w128_d01);
    const lanes2 w129_d23 = (w127_d23 + w128_d23);
    const lanes2 w130_d01 = (t62 * t9_d01);
    const lanes2 w130_d23 = (t62 * t9_d23);
    const lanes2 w131_d01 = (w129_d01 - w130_d01);
    const lanes2 w131_d23 = (w129_d23 - w130_d23);
    const lanes2 w132_d01 = ((t61_d01 * w131) + (t61 * w131_d01));
    const lanes2 w132_d23 = ((t61_d23 * w131) + (t61 * w131_d23));
    const lanes2 w133_d01 = (w123_d01 - w132_d01);
    const lanes2 w133_d23 = (w123_d23 - w132_d23);
    const lanes2 b1_d01 = w133_d01;
    const lanes2 b1_d23 = w133_d23;
    const lanes2 w134_d01 = ((-bp) * (lanes2){x[44], x[45]});
    const lanes2 w134_d23 = ((-bp) * (lanes2){x[46], x[47]});
    const lanes2 w135_d01 = ((ct_d01 * dy) + (ct * (lanes2){x[40], x[41]}));
    const lanes2 w135_d23 = ((ct_d23 * dy) + (ct * (lanes2){x[42], x[43]}));
    const lanes2 w136_d01 = (w135_d01 * t66);
    const lanes2 w136_d23 = (w135_d23 * t66);
    const lanes2 w137_d01 = (w134_d01 + w136_d01);
    const lanes2 w137_d23 = (w134_d23 + w136_d23);
    const lanes2 w138_d01 = (((lanes2){x[36], x[37]} * st) + (dx * st_d01));
    const lanes2 w138_d23 = (((lanes2){x[38], x[39]} * st) + (dx * st_d23));
    const lanes2 w139_d01 = (w138_d01 * t66);
    const lanes2 w139_d23 = (w138_d23 * t66);
    const lanes2 w140_d01 = (w137_d01 - w139_d01);
    const lanes2 w140_d23 = (w137_d23 - w139_d23);
    const lanes2 b2_d01 = w140_d01;
    const lanes2 b2_d23 = w140_d23;
    const lanes2 r2_d01 = (b2_d01 - (((m20_d01 * ddx) + (m21_d01 * ddy)) + (t37_d01 * dda)));
    const lanes2 r2_d23 = (b2_d23 - (((m20_d23 * ddx) + (m21_d23 * ddy)) + (t37_d23 * dda)));
    const lanes2 r0_d01 = (b0_d01 - (((m00_d01 * ddx) + (m01_d01 * ddy)) + (m02_d01 * dda)));
    const lanes2 r0_d23 = (b0_d23 - (((m00_d23 * ddx) + (m01_d23 * ddy)) + (m02_d23 * dda)));
    const lanes2 r1_d01 = (b1_d01 - (((m10_d01 * ddx) + (m11_d01 * ddy)) + (m12_d01 * dda)));
    const lanes2 r1_d23 = (b1_d23 - (((m10_d23 * ddx) + (m11_d23 * ddy)) + (m12_d23 * dda)));
    const lanes2 ddx_d01 = ((((a00 * r0_d01) + (a01 * r1_d01)) + (a02 * r2_d01)) * inv_det);
    const lanes2 ddx_d23 = ((((a00 * r0_d23) + (a01 * r1_d23)) + (a02 * r2_d23)) * inv_det);
    const lanes2 ddy_d01 = ((((a10 * r0_d01) + (a11 * r1_d01)) + (a12 * r2_d01)) * inv_det);
    const lanes2 ddy_d23 = ((((a10 * r0_d23) + (a11 * r1_d23)) + (a12 * r2_d23)) * inv_det);
    const lanes2 dda_d01 = ((((a20 * r0_d01) + (a21 * r1_d01)) + (a22 * r2_d01)) * inv_det);
    const lanes2 dda_d23 = ((((a20 * r0_d23) + (a21 * r1_d23)) + (a22 * r2_d23)) * inv_det);
    const lanes2 s0_d01 = (ct_d01 * l2);
    const lanes2 s0_d23 = (ct_d23 * l2);
    const lanes2 s1_d01 = (l1 * st_d01);
    const lanes2 s1_d23 = (l1 * st_d23);
    const lanes2 s2_d01 = (s0_d01 + s1_d01);
    const lanes2 s2_d23 = (s0_d23 + s1_d23);
    const lanes2 s3_d01 = (ct_d01 * l1);
    const lanes2 s3_d23 = (ct_d23 * l1);
    const lanes2 s4_d01 = (l2 * st_d01);
    const lanes2 s4_d23 = (l2 * st_d23);
    const lanes2 s5_d01 = (s3_d01 - s4_d01);
    const lanes2 s5_d23 = (s3_d23 - s4_d23);
    const lanes2 s6_d01 = ((dth_d01 * dx) + (dth * (lanes2){x[36], x[37]}));
    const lanes2 s6_d23 = ((dth_d23 * dx) + (dth * (lanes2){x[38], x[39]}));
    const lanes2 s7_d01 = ((dth_d01 * dy) + (dth * (lanes2){x[40], x[41]}));
    const lanes2 s7_d23 = ((dth_d23 * dy) + (dth * (lanes2){x[42], x[43]}));
    const lanes2 s10_d01 = (s3_d01 + s4_d01);
    const lanes2 s10_d23 = (s3_d23 + s4_d23);
    const lanes2 s11_d01 = (s0_d01 - s1_d01);
    const lanes2 s11_d23 = (s0_d23 - s1_d23);
    const lanes2 s12_d01 = (s8 * st_d01);
    const lanes2 s12_d23 = (s8 * st_d23);
    const lanes2 s13_d01 = (ct_d01 * s8);
    const lanes2 s13_d23 = (ct_d23 * s8);
    const lanes2 w164_d01 = ((ddx_d01 * s5) + (ddx * s5_d01));
    const lanes2 w164_d23 = ((ddx_d23 * s5) + (ddx * s5_d23));
    const lanes2 w165_d01 = ((ddy_d01 * s2) + (ddy * s2_d01));
    const lanes2 w165_d23 = ((ddy_d23 * s2) + (ddy * s2_d23));
    const lanes2 w166_d01 = (w164_d01 + w165_d01);
    const lanes2 w166_d23 = (w164_d23 + w165_d23);
    const lanes2 w167_d01 = ((s2_d01 * s6) + (s2 * s6_d01));
    const lanes2 w167_d23 = ((s2_d23 * s6) + (s2 * s6_d23));
    const lanes2 w168_d01 = (w166_d01 - w167_d01);
    const lanes2 w168_d23 = (w166_d23 - w167_d23);
    const lanes2 w169_d01 = ((s5_d01 * s7) + (s5 * s7_d01));
    const lanes2 w169_d23 = ((s5_d23 * s7) + (s5 * s7_d23));
    const lanes2 w170_d01 = (w168_d01 + w169_d01);
    const lanes2 w170_d23 = (w168_d23 + w169_d23);
    const lanes2 ddphi_r_d01 = (s9 * w170_d01);
    const lanes2 ddphi_r_d23 = (s9 * w170_d23);
    const lanes2 w171_d01 = ((ddx_d01 * s10) + (ddx * s10_d01));
    const lanes2 w171_d23 = ((ddx_d23 * s10) + (ddx * s10_d23));
    const lanes2 w172_d01 = ((ddy_d01 * s11) + (ddy * s11_d01));
    const lanes2 w172_d23 = ((ddy_d23 * s11) + (ddy * s11_d23));
    const lanes2 w173_d01 = (w171_d01 - w172_d01);
    const lanes2 w173_d23 = (w171_d23 - w172_d23);
    const lanes2 w174_d01 = ((s10_d01 * s7) + (s10 * s7_d01));
    const lanes2 w174_d23 = ((s10_d23 * s7) + (s10 * s7_d23));
    const lanes2 w175_d01 = (w173_d01 + w174_d01);
    const lanes2 w175_d23 = (w173_d23 + w174_d23);
    const lanes2 w176_d01 = ((s11_d01 * s6) + (s11 * s6_d01));
    const lanes2 w176_d23 = ((s11_d23 * s6) + (s11 * s6_d23));
    const lanes2 w177_d01 = (w175_d01 + w176_d01);
    const lanes2 w177_d23 = (w175_d23 + w176_d23);
    const lanes2 ddphi_l_d01 = (s9 * w177_d01);
    const lanes2 ddphi_l_d23 = (s9 * w177_d23);
    const lanes2 w178_d01 = ((ddx_d01 * s12) + (ddx * s12_d01));
    const lanes2 w178_d23 = ((ddx_d23 * s12) + (ddx * s12_d23));
    const lanes2 w179_d01 = (dda_d01 + w178_d01);
    const lanes2 w179_d23 = (dda_d23 + w178_d23);
    const lanes2 w180_d01 = ((ddy_d01 * s13) + (ddy * s13_d01));
    const lanes2 w180_d23 = ((ddy_d23 * s13) + (ddy * s13_d23));
    const lanes2 w181_d01 = (w179_d01 - w180_d01);
    const lanes2 w181_d23 = (w179_d23 - w180_d23);
    const lanes2 w182_d01 = ((s12_d01 * s7) + (s12 * s7_d01));
    const lanes2 w182_d23 = ((s12_d23 * s7) + (s12 * s7_d23));
    const lanes2 w183_d01 = (w181_d01 + w182_d01);
    const lanes2 w183_d23 = (w181_d23 + w182_d23);
    const lanes2 w184_d01 = ((s13_d01 * s6) + (s13 * s6_d01));
    const lanes2 w184_d23 = ((s13_d23 * s6) + (s13 * s6_d23));
    const lanes2 ddphi_p_d01 = (w183_d01 + w184_d01);
    const lanes2 ddphi_p_d23 = (w183_d23 + w184_d23);
    k[0] = x[6];
    k[1] = x[7];
    k[2] = x[8];
    k[3] = x[9];
    k[4] = x[10];
    k[5] = x[11];
    k[6] = ddx;
    k[7] = ddy;
    k[8] = dda;
    k[9] = ddphi_r;
    k[10] = ddphi_l;
    k[11] = ddphi_p;
    k[12] = x[36];
    k[13] = x[37];
    k[14] = x[38];
    k[15] = x[39];
    k[16] = x[40];
    k[17] = x[41];
    k[18] = x[42];
    k[19] = x[43];
    k[20] = x[44];
    k[21] = x[45];
    k[22] = x[46];
    k[23] = x[47];
    k[24] = x[48];
    k[25] = x[49];
    k[26] = x[50];
    k[27] = x[51];
    k[28] = x[52];
    k[29] = x[53];
    k[30] = x[54];
    k[31] = x[55];
    k[32] = x[56];
    k[33] = x[57];
    k[34] = x[58];
    k[35] = x[59];
    k[36] = ddx_d01[0];
    k[37] = ddx_d01[1];
    k[38] = ddx_d23[0];
    k[39] = ddx_d23[1];
    k[40] = ddy_d01[0];
    k[41] = ddy_d01[1];
    k[42] = ddy_d23[0];
    k[43] = ddy_d23[1];
    k[44] = dda_d01[0];
    k[45] = dda_d01[1];
    k[46] = dda_d23[0];
    k[47] = dda_d23[1];
    k[48] = ddphi_r_d01[0];
    k[49] = ddphi_r_d01[1];
    k[50] = ddphi_r_d23[0];
    k[51] = ddphi_r_d23[1];
    k[52] = ddphi_l_d01[0];
    k[53] = ddphi_l_d01[1];
    k[54] = ddphi_l_d23[0];
    k[55] = ddphi_l_d23[1];
    k[56] = ddphi_p_d01[0];
    k[57] = ddphi_p_d01[1];
    k[58] = ddphi_p_d23[0];
    k[59] = ddphi_p_d23[1];
    return 0;
}

int dp5_robot_sensitivity_attempt(const double *blk, double h, double rtol, double atol,
                      const double *y, const double *k1,
                      double *y_new, double *k7, double *ratio)
{
    double ys[60], k2[60], k3[60], k4[60], k5[60], k6[60], e[60];
    int s;
    /* stage 2 */
    for (int j = 0; j < 60; j++) ys[j] = (y[j] + (h * (0.2 * k1[j])));
    if ((s = robot_sensitivity_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    for (int j = 0; j < 60; j++) ys[j] = (y[j] + (h * ((0.075 * k1[j]) + (0.225 * k2[j]))));
    if ((s = robot_sensitivity_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    for (int j = 0; j < 60; j++) ys[j] = (y[j] + (h * (((0.9777777777777777 * k1[j]) + ((-3.7333333333333334) * k2[j])) + (3.5555555555555554 * k3[j]))));
    if ((s = robot_sensitivity_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    for (int j = 0; j < 60; j++) ys[j] = (y[j] + (h * ((((2.9525986892242035 * k1[j]) + ((-11.595793324188385) * k2[j])) + (9.822892851699436 * k3[j])) + ((-0.2908093278463649) * k4[j]))));
    if ((s = robot_sensitivity_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    for (int j = 0; j < 60; j++) ys[j] = (y[j] + (h * (((((2.8462752525252526 * k1[j]) + ((-10.757575757575758) * k2[j])) + (8.906422717743473 * k3[j])) + (0.2784090909090909 * k4[j])) + ((-0.2735313036020583) * k5[j]))));
    if ((s = robot_sensitivity_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    for (int j = 0; j < 60; j++) y_new[j] = (y[j] + (h * (((((0.09114583333333333 * k1[j]) + (0.44923629829290207 * k3[j])) + (0.6510416666666666 * k4[j])) + ((-0.322376179245283) * k5[j])) + (0.13095238095238096 * k6[j]))));
    /* stage 7, at the new state */
    if ((s = robot_sensitivity_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    for (int j = 0; j < 60; j++) e[j] = (h * ((((((0.0012326388888888888 * k1[j]) + ((-0.0042527702905061394) * k3[j])) + (0.03697916666666667 * k4[j])) + ((-0.05086379716981132) * k5[j])) + (0.0419047619047619 * k6[j])) + ((-0.025) * k7[j])));
    /* error ratios; the caller reduces them to the norm */
    for (int j = 0; j < 12; j++) {
        const double a = fabs(y[j]);
        const double b = fabs(y_new[j]);
        ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));
    }
    return 0;
}

static int shaft_sensitivity_rhs(const double *blk, const double *x, double *k)
{
    const double *const dp = blk + 2;
    const double w0 = (blk[1] * x[1]);
    const double w1 = (blk[6] - w0);
    if (blk[0] == 0.0) return 1;
    const double w2 = (w1 / blk[0]);
    const lanes2 w0_d01 = (((lanes2){dp[2], dp[3]} * x[1]) + (blk[1] * (lanes2){x[4], x[5]}));
    const lanes2 w1_d01 = (-w0_d01);
    const lanes2 w2_d01 = ((w1_d01 - (w2 * (lanes2){dp[0], dp[1]})) / blk[0]);
    k[0] = x[1];
    k[1] = w2;
    k[2] = x[4];
    k[3] = x[5];
    k[4] = w2_d01[0];
    k[5] = w2_d01[1];
    return 0;
}

int dp5_shaft_sensitivity_attempt(const double *blk, double h, double rtol, double atol,
                      const double *y, const double *k1,
                      double *y_new, double *k7, double *ratio)
{
    double ys[6], k2[6], k3[6], k4[6], k5[6], k6[6], e[6];
    int s;
    /* stage 2 */
    for (int j = 0; j < 6; j++) ys[j] = (y[j] + (h * (0.2 * k1[j])));
    if ((s = shaft_sensitivity_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    for (int j = 0; j < 6; j++) ys[j] = (y[j] + (h * ((0.075 * k1[j]) + (0.225 * k2[j]))));
    if ((s = shaft_sensitivity_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    for (int j = 0; j < 6; j++) ys[j] = (y[j] + (h * (((0.9777777777777777 * k1[j]) + ((-3.7333333333333334) * k2[j])) + (3.5555555555555554 * k3[j]))));
    if ((s = shaft_sensitivity_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    for (int j = 0; j < 6; j++) ys[j] = (y[j] + (h * ((((2.9525986892242035 * k1[j]) + ((-11.595793324188385) * k2[j])) + (9.822892851699436 * k3[j])) + ((-0.2908093278463649) * k4[j]))));
    if ((s = shaft_sensitivity_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    for (int j = 0; j < 6; j++) ys[j] = (y[j] + (h * (((((2.8462752525252526 * k1[j]) + ((-10.757575757575758) * k2[j])) + (8.906422717743473 * k3[j])) + (0.2784090909090909 * k4[j])) + ((-0.2735313036020583) * k5[j]))));
    if ((s = shaft_sensitivity_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    for (int j = 0; j < 6; j++) y_new[j] = (y[j] + (h * (((((0.09114583333333333 * k1[j]) + (0.44923629829290207 * k3[j])) + (0.6510416666666666 * k4[j])) + ((-0.322376179245283) * k5[j])) + (0.13095238095238096 * k6[j]))));
    /* stage 7, at the new state */
    if ((s = shaft_sensitivity_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    for (int j = 0; j < 6; j++) e[j] = (h * ((((((0.0012326388888888888 * k1[j]) + ((-0.0042527702905061394) * k3[j])) + (0.03697916666666667 * k4[j])) + ((-0.05086379716981132) * k5[j])) + (0.0419047619047619 * k6[j])) + ((-0.025) * k7[j])));
    /* error ratios; the caller reduces them to the norm */
    for (int j = 0; j < 2; j++) {
        const double a = fabs(y[j]);
        const double b = fabs(y_new[j]);
        ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));
    }
    return 0;
}

/* otbot._ckernel.MODELS, which struct rollout's model indexes: the state size,
   the widths in blk of the parameters (seeds included), held input and pivot
   force, the sensitivity lanes, the rhs and the DP5 attempt. */
struct model {
    long states, params, inputs, forces, lanes;
    int (*rhs)(const double *blk, const double *x, double *k);
    int (*attempt)(const double *blk, double h, double rtol, double atol, const double *y,
                   const double *k1, double *y_new, double *k7, double *ratio);
};

static const struct model MODELS[] = {
    {12, 14, 3, 2, 0, robot_rhs, dp5_robot_attempt},
    {2, 2, 1, 0, 0, shaft_rhs, dp5_shaft_attempt},
    {60, 46, 3, 2, 4, robot_sensitivity_rhs, dp5_robot_sensitivity_attempt},
    {6, 6, 1, 0, 2, shaft_sensitivity_rhs, dp5_shaft_sensitivity_attempt},
};

/* BLAS ddot and dgemv with 64-bit integers: numpy's dot of two float64
   vectors and its (3, 3) @ (3,) */
typedef double (*ddot_t)(long long, const double *, long long, const double *, long long);
typedef void (*dgemv_t)(int, int, long long, long long, double, const double *, long long,
                        const double *, long long, double, double *, long long);

/* Python's min(a, b) and max(a, b): a unless b is smaller (larger) */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

static void copy(double *to, const double *from, long n)
{
    for (long c = 0; c < n; c++) to[c] = from[c];
}

/* 1 where the inputs a and b are the same n bit patterns: 0.0 and -0.0 differ */
static int same_bits(const double *a, const double *b, long n)
{
    for (long c = 0; c < n; c++) {
        union { double d; unsigned long long bits; } p = {a[c]}, q = {b[c]};
        if (p.bits != q.bits) return 0;
    }
    return 1;
}

/* numpy's add.reduce of n (at most 60) doubles, its pairwise sum: below 8
   terms from the left, else eight interleaved partial sums added as a tree,
   then the terms left over (numpy's order up to 128 terms) */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double sum = 0.0;
        for (long c = 0; c < n; c++) sum += a[c];
        return sum;
    }
    double r[8];
    long c;
    copy(r, a, 8);
    for (c = 8; c < n - n % 8; c += 8)
        for (int q = 0; q < 8; q++) r[q] += a[c + q];
    double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; c < n; c++) sum += a[c];
    return sum;
}

/* integrator._rms(v, scale, n): math.sqrt(np.mean((v[:n] / scale) ** 2)) */
static double rms(const double *v, const double *scale, long n)
{
    double sq[60];
    for (long c = 0; c < n; c++) {
        const double q = v[c] / scale[c];
        sq[c] = q * q;
    }
    return sqrt(pairwise_sum(sq, n) / (double)n);
}

/* integrator.initial_step from r->x and r->k1 over the ne states ahead of the
   sensitivities: the guess into r->h, its rhs call counted, or a status */
int first_step(struct rollout *r)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states, ne = n / (m->lanes + 1);
    const double *const blk = r->blk;
    int s;
    double ys[60];
    double scale[60], h0, f1[60], change[60], h1;
    /* scale */
    for (long j = 0; j < ne; j++) {
        scale[j] = (r->atol + (r->rtol * fabs(r->x[j])));
    }
    const double d0 = rms(r->x, scale, ne);
    const double d1 = rms(r->k1, scale, ne);
    if ((d0 < 1e-05) || (d1 < 1e-05)) {
        h0 = 1e-06;
    } else {
        if (d1 == 0.0) return 1;
        h0 = ((0.01 * d0) / d1);
    }
    /* f1 */
    for (long j = 0; j < n; j++) {
        ys[j] = (r->x[j] + (h0 * r->k1[j]));
    }
    if ((s = m->rhs(blk, ys, f1))) return s;
    if (h0 == 0.0) {
        return 3;
    }
    /* change */
    for (long j = 0; j < ne; j++) {
        change[j] = (f1[j] - r->k1[j]);
    }
    if (h0 == 0.0) return 1;
    const double d2 = (rms(change, scale, ne) / h0);
    if ((d1 <= 1e-15) && (d2 <= 1e-15)) {
        h1 = py_max(1e-06, (h0 * 0.001));
    } else {
        const double tmp0 = py_max(d1, d2);
        if (tmp0 == 0.0) return 1;
        h1 = pow((0.01 / tmp0), 0.2);
    }
    r->h = py_min((100.0 * h0), h1);
    r->fevals += 1;
    return 0;
}

/* The step loop of integrator.advance_segment from t to t1, the norm over the
   ne states: r->x, r->k1, r->h and the counts move on, or a status returns */
static int advance(struct rollout *r, const struct model *m, double t, double t1)
{
    const ddot_t ddot = (ddot_t)r->ddot;
    const long ne = m->states / (m->lanes + 1);
    const double *const blk = r->blk;
    int s;
    double ratio[60], buffers[2][60];
    double *y = r->x, *k1 = r->k1, *y_new = buffers[0], *k7 = buffers[1];
    double remaining, h, norm, factor, grown;
    int clipped;
    while (t < t1) {
        remaining = (t1 - t);
        if (remaining <= (1e-14 * py_max(1.0, fabs(t1)))) {
            t = t1;
            break;
        }
        clipped = (r->h >= remaining);
        if (clipped) {
            h = remaining;
        } else {
            h = r->h;
        }
        if (!(h >= (1e-14 * py_max(1.0, fabs(t))))) {
            return 3;
        }
        if ((s = m->attempt(blk, h, r->rtol, r->atol, y, k1, y_new, k7, ratio))) return s;
        norm = sqrt((ddot(ne, ratio, 1, ratio, 1) / (double)ne));
        r->fevals += 6;
        if (!isfinite(norm)) {
            r->rejected += 1;
            r->h = (0.1 * h);
            continue;
        }
        if (norm <= 1.0) {
            r->accepted += 1;
            if (clipped) {
                t = t1;
            } else {
                t = (t + h);
            }
            { double *const swap = y; y = y_new; y_new = swap; }
            { double *const swap = k1; k1 = k7; k7 = swap; }
            if (norm == 0.0) {
                factor = 10.0;
            } else {
                if (norm == 0.0) return 1;
                factor = py_min(10.0, (0.9 * pow(norm, -0.2)));
            }
            grown = (h * factor);
            if (clipped) {
                r->h = py_max(r->h, grown);
            } else {
                r->h = grown;
            }
        } else {
            r->rejected += 1;
            if (norm == 0.0) return 1;
            r->h = (h * py_max(0.2, (0.9 * pow(norm, -0.2))));
        }
    }
    if (y != r->x) { /* the state ended in the buffers */
        copy(r->x, y, m->states);
        copy(r->k1, k1, m->states);
    }
    return 0;
}

/* y = a @ v for a row-major 3x3 a, through numpy's dgemv: row-major (101),
   no transpose (111), alpha 1, beta 0 */
static void matvec(const struct rollout *r, const double *a, const double *v, double *y)
{
    ((dgemv_t)r->dgemv)(101, 111, 3, 3, 1.0, a, 3, v, 1, 0.0, y, 1);
}

/* control.computed_torque at the state r->x and the reference row r->instant,
   in numpy's order: the torque into u and that row of u_traj, u_corr (zero
   without feedback) and, where set, r->mbar and r->cbar; or the status
   where the task-space model raises. */
static int computed_torque(struct rollout *r, double *u)
{
    const double *x = r->x, *ref = (const double *)r->reference + 9 * r->instant;
    double *u_traj = (double *)r->u_traj + 3 * r->instant;
    double *u_corr = (double *)r->u_corr + 3 * r->instant;
    double mbar[9], cbar[9], a[3] = {0.0}, b[3] = {0.0}, w[3];
    const int s = task_space_model(r->blk, x, mbar, cbar);
    if (s) return s;
    if (r->mbar) {
        copy((double *)r->mbar + 9 * r->instant, mbar, 9);
        copy((double *)r->cbar + 9 * r->instant, cbar, 9);
    }
    matvec(r, mbar, ref + 6, a);
    matvec(r, cbar, x + 6, b);
    for (int c = 0; c < 3; c++) {
        u_traj[c] = a[c] + b[c];
        u_corr[c] = 0.0;
    }
    if (r->law == 2) {
        for (int c = 0; c < 3; c++)
            w[c] = ((-r->kp[c]) * (x[c] - ref[c])) - (r->kv[c] * (x[c + 6] - ref[c + 3]));
        matvec(r, mbar, w, u_corr);
    }
    /* + 0.0 without feedback, so that a -0.0 becomes 0.0 as in numpy */
    for (int c = 0; c < 3; c++) u[c] = u_traj[c] + u_corr[c];
    return 0;
}

/* Events [i, j) of simulate.integrate for the model r->model: at each event
   the segment from the one before (a call that ran event 0 first guesses
   the first step from its hold), the law at a control instant (or the
   torques held from the last), the hold (a fresh first stage where the
   input bits change or a disturbance edge lies), then the output row, its
   first stage left out where derivs is NULL. Returns 0, or a status. */
int rollout(struct rollout *r, long i, long j)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states, nu = m->inputs, nf = m->forces;
    double *const hold = r->blk + m->params;
    const double *events = r->events, *forces = r->forces;
    const unsigned char *out = r->out, *start = r->start, *brk = r->brk;
    double *held = r->held, *states = r->states, *derivs = r->derivs, *controls = r->controls;
    int s;
    for (long e = i; e < j; e++) {
        double *u = held + nu * e;
        const int instant = r->law && start[e];
        if (e == 1 && i == 0 && (s = first_step(r))) return s;
        if (e > 0 && (s = advance(r, m, events[e - 1], events[e]))) return s;
        if (instant) {
            if ((s = computed_torque(r, u))) return s;
        } else if (r->law) {
            copy(u, u - nu, nu);
        }
        if (e == 0 || brk[e] || !same_bits(u, u - nu, nu)) {
            copy(hold, u, nu);
            copy(hold + nu, forces + nf * e, nf);
            if ((s = m->rhs(r->blk, r->x, r->k1))) return s;
            r->fevals += 1;
        }
        r->instant += instant;
        if (out[e]) {
            copy(states + n * r->row, r->x, n);
            if (derivs) copy(derivs + n * r->row, r->k1, n);
            copy(controls + nu * r->row, u, nu);
            r->row += 1;
        }
    }
    return 0;
}
