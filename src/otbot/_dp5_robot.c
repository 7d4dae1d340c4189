// Generated by scripts/gen_task_space.py; do not edit by hand.
// generator sha256: f84ae2696f427b21ab85ee3e7298e02e11e0d1c031ceee48bee1ed3a2b24db7f
// sympy 1.14.0
//
// The rollout loop of the robot and of an isolated shaft: rollout runs
// the event loop of otbot.simulate.integrate, with the computed-torque law
// of otbot.control.computed_torque at each control instant (the robot's
// only), the first-step guess of otbot.integrator.initial_step
// (first_step) and the step control of otbot.integrator.advance_segment
// on a struct rollout (the fields of otbot._ckernel.Rollout), for the
// model of its MODELS row (otbot._ckernel.MODELS), so that one call
// runs a whole rollout. dp5_robot_attempt is one
// Dormand-Prince 5(4) attempt of y' = f(y), with f the rhs of
// otbot.dynamics.state_derivative (robot_rhs, from the accelerations of
// otbot._task_space) under the held torques and pivot force in blk:
// the parameters (l1, l2, r, xB, yB, xF, yF,
// mc, mp, Ic, Ip, Ia, bw, bp), u0, u1, u2, fx, fy; the law's
// task_space_model is that of otbot._task_space on the same parameters.
// dp5_shaft_attempt is the same attempt of otbot.simulate.shaft_derivative
// (shaft_rhs) with blk holding the inertia, the damping and the torque.
// Every value is bit for bit what the Python code computes; the error
// norm and the law's products reduce through the BLAS ddot and dgemv
// that numpy calls, and the guess's means in numpy's pairwise order.
// A nonzero status stops the loop where Python raises:
// 1 a zero divisor, 2 sin or cos of an infinite angle, 3 a step
// underflow.

#include <math.h>

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
    double blk[19];
    double x[12];
    double k1[12];
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
    const double u0 = blk[14];
    const double u1 = blk[15];
    const double u2 = blk[16];
    const double fx = blk[17];
    const double fy = blk[18];
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
    const double t41 = (fy * t11);
    const double t42 = (fx * t11);
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
    const double b0 = ((((((t19 * t41) + (t42 * t9)) + (t43 * ((t19 * t39) + (t40 * t9)))) - (t58 * (((((t4 * t44) - (t45 * t46)) - t49) + (t51 * t53)) + (t55 * t56)))) - (t61 * ((((((((2.0 * Ia) * dth) * t2) * t3) + (((2.0 * bw) * t3) * t31)) - (t50 * t56)) - (t53 * t60)) - t59))) + u0);
    const double b1 = (((((((-t2) * t41) + (t31 * t42)) + (t43 * (((-t2) * t39) + (t31 * t40)))) - (t58 * (((((t19 * t62) + t49) - (t51 * t65)) + (t55 * t64)) + (t63 * t9)))) - (t61 * (((((t19 * t63) - (t50 * t64)) + t59) + (t60 * t65)) - (t62 * t9)))) + u1);
    const double b2 = (((((-bp) * da) + ((ct * dy) * t66)) - ((dx * st) * t66)) + u2);
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
    ys[0] = (y[0] + (h * (0.2 * k1[0])));
    ys[1] = (y[1] + (h * (0.2 * k1[1])));
    ys[2] = (y[2] + (h * (0.2 * k1[2])));
    ys[3] = (y[3] + (h * (0.2 * k1[3])));
    ys[4] = (y[4] + (h * (0.2 * k1[4])));
    ys[5] = (y[5] + (h * (0.2 * k1[5])));
    ys[6] = (y[6] + (h * (0.2 * k1[6])));
    ys[7] = (y[7] + (h * (0.2 * k1[7])));
    ys[8] = (y[8] + (h * (0.2 * k1[8])));
    ys[9] = (y[9] + (h * (0.2 * k1[9])));
    ys[10] = (y[10] + (h * (0.2 * k1[10])));
    ys[11] = (y[11] + (h * (0.2 * k1[11])));
    if ((s = robot_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    ys[0] = (y[0] + (h * ((0.075 * k1[0]) + (0.225 * k2[0]))));
    ys[1] = (y[1] + (h * ((0.075 * k1[1]) + (0.225 * k2[1]))));
    ys[2] = (y[2] + (h * ((0.075 * k1[2]) + (0.225 * k2[2]))));
    ys[3] = (y[3] + (h * ((0.075 * k1[3]) + (0.225 * k2[3]))));
    ys[4] = (y[4] + (h * ((0.075 * k1[4]) + (0.225 * k2[4]))));
    ys[5] = (y[5] + (h * ((0.075 * k1[5]) + (0.225 * k2[5]))));
    ys[6] = (y[6] + (h * ((0.075 * k1[6]) + (0.225 * k2[6]))));
    ys[7] = (y[7] + (h * ((0.075 * k1[7]) + (0.225 * k2[7]))));
    ys[8] = (y[8] + (h * ((0.075 * k1[8]) + (0.225 * k2[8]))));
    ys[9] = (y[9] + (h * ((0.075 * k1[9]) + (0.225 * k2[9]))));
    ys[10] = (y[10] + (h * ((0.075 * k1[10]) + (0.225 * k2[10]))));
    ys[11] = (y[11] + (h * ((0.075 * k1[11]) + (0.225 * k2[11]))));
    if ((s = robot_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    ys[0] = (y[0] + (h * (((0.9777777777777777 * k1[0]) + ((-3.7333333333333334) * k2[0])) + (3.5555555555555554 * k3[0]))));
    ys[1] = (y[1] + (h * (((0.9777777777777777 * k1[1]) + ((-3.7333333333333334) * k2[1])) + (3.5555555555555554 * k3[1]))));
    ys[2] = (y[2] + (h * (((0.9777777777777777 * k1[2]) + ((-3.7333333333333334) * k2[2])) + (3.5555555555555554 * k3[2]))));
    ys[3] = (y[3] + (h * (((0.9777777777777777 * k1[3]) + ((-3.7333333333333334) * k2[3])) + (3.5555555555555554 * k3[3]))));
    ys[4] = (y[4] + (h * (((0.9777777777777777 * k1[4]) + ((-3.7333333333333334) * k2[4])) + (3.5555555555555554 * k3[4]))));
    ys[5] = (y[5] + (h * (((0.9777777777777777 * k1[5]) + ((-3.7333333333333334) * k2[5])) + (3.5555555555555554 * k3[5]))));
    ys[6] = (y[6] + (h * (((0.9777777777777777 * k1[6]) + ((-3.7333333333333334) * k2[6])) + (3.5555555555555554 * k3[6]))));
    ys[7] = (y[7] + (h * (((0.9777777777777777 * k1[7]) + ((-3.7333333333333334) * k2[7])) + (3.5555555555555554 * k3[7]))));
    ys[8] = (y[8] + (h * (((0.9777777777777777 * k1[8]) + ((-3.7333333333333334) * k2[8])) + (3.5555555555555554 * k3[8]))));
    ys[9] = (y[9] + (h * (((0.9777777777777777 * k1[9]) + ((-3.7333333333333334) * k2[9])) + (3.5555555555555554 * k3[9]))));
    ys[10] = (y[10] + (h * (((0.9777777777777777 * k1[10]) + ((-3.7333333333333334) * k2[10])) + (3.5555555555555554 * k3[10]))));
    ys[11] = (y[11] + (h * (((0.9777777777777777 * k1[11]) + ((-3.7333333333333334) * k2[11])) + (3.5555555555555554 * k3[11]))));
    if ((s = robot_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    ys[0] = (y[0] + (h * ((((2.9525986892242035 * k1[0]) + ((-11.595793324188385) * k2[0])) + (9.822892851699436 * k3[0])) + ((-0.2908093278463649) * k4[0]))));
    ys[1] = (y[1] + (h * ((((2.9525986892242035 * k1[1]) + ((-11.595793324188385) * k2[1])) + (9.822892851699436 * k3[1])) + ((-0.2908093278463649) * k4[1]))));
    ys[2] = (y[2] + (h * ((((2.9525986892242035 * k1[2]) + ((-11.595793324188385) * k2[2])) + (9.822892851699436 * k3[2])) + ((-0.2908093278463649) * k4[2]))));
    ys[3] = (y[3] + (h * ((((2.9525986892242035 * k1[3]) + ((-11.595793324188385) * k2[3])) + (9.822892851699436 * k3[3])) + ((-0.2908093278463649) * k4[3]))));
    ys[4] = (y[4] + (h * ((((2.9525986892242035 * k1[4]) + ((-11.595793324188385) * k2[4])) + (9.822892851699436 * k3[4])) + ((-0.2908093278463649) * k4[4]))));
    ys[5] = (y[5] + (h * ((((2.9525986892242035 * k1[5]) + ((-11.595793324188385) * k2[5])) + (9.822892851699436 * k3[5])) + ((-0.2908093278463649) * k4[5]))));
    ys[6] = (y[6] + (h * ((((2.9525986892242035 * k1[6]) + ((-11.595793324188385) * k2[6])) + (9.822892851699436 * k3[6])) + ((-0.2908093278463649) * k4[6]))));
    ys[7] = (y[7] + (h * ((((2.9525986892242035 * k1[7]) + ((-11.595793324188385) * k2[7])) + (9.822892851699436 * k3[7])) + ((-0.2908093278463649) * k4[7]))));
    ys[8] = (y[8] + (h * ((((2.9525986892242035 * k1[8]) + ((-11.595793324188385) * k2[8])) + (9.822892851699436 * k3[8])) + ((-0.2908093278463649) * k4[8]))));
    ys[9] = (y[9] + (h * ((((2.9525986892242035 * k1[9]) + ((-11.595793324188385) * k2[9])) + (9.822892851699436 * k3[9])) + ((-0.2908093278463649) * k4[9]))));
    ys[10] = (y[10] + (h * ((((2.9525986892242035 * k1[10]) + ((-11.595793324188385) * k2[10])) + (9.822892851699436 * k3[10])) + ((-0.2908093278463649) * k4[10]))));
    ys[11] = (y[11] + (h * ((((2.9525986892242035 * k1[11]) + ((-11.595793324188385) * k2[11])) + (9.822892851699436 * k3[11])) + ((-0.2908093278463649) * k4[11]))));
    if ((s = robot_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    ys[0] = (y[0] + (h * (((((2.8462752525252526 * k1[0]) + ((-10.757575757575758) * k2[0])) + (8.906422717743473 * k3[0])) + (0.2784090909090909 * k4[0])) + ((-0.2735313036020583) * k5[0]))));
    ys[1] = (y[1] + (h * (((((2.8462752525252526 * k1[1]) + ((-10.757575757575758) * k2[1])) + (8.906422717743473 * k3[1])) + (0.2784090909090909 * k4[1])) + ((-0.2735313036020583) * k5[1]))));
    ys[2] = (y[2] + (h * (((((2.8462752525252526 * k1[2]) + ((-10.757575757575758) * k2[2])) + (8.906422717743473 * k3[2])) + (0.2784090909090909 * k4[2])) + ((-0.2735313036020583) * k5[2]))));
    ys[3] = (y[3] + (h * (((((2.8462752525252526 * k1[3]) + ((-10.757575757575758) * k2[3])) + (8.906422717743473 * k3[3])) + (0.2784090909090909 * k4[3])) + ((-0.2735313036020583) * k5[3]))));
    ys[4] = (y[4] + (h * (((((2.8462752525252526 * k1[4]) + ((-10.757575757575758) * k2[4])) + (8.906422717743473 * k3[4])) + (0.2784090909090909 * k4[4])) + ((-0.2735313036020583) * k5[4]))));
    ys[5] = (y[5] + (h * (((((2.8462752525252526 * k1[5]) + ((-10.757575757575758) * k2[5])) + (8.906422717743473 * k3[5])) + (0.2784090909090909 * k4[5])) + ((-0.2735313036020583) * k5[5]))));
    ys[6] = (y[6] + (h * (((((2.8462752525252526 * k1[6]) + ((-10.757575757575758) * k2[6])) + (8.906422717743473 * k3[6])) + (0.2784090909090909 * k4[6])) + ((-0.2735313036020583) * k5[6]))));
    ys[7] = (y[7] + (h * (((((2.8462752525252526 * k1[7]) + ((-10.757575757575758) * k2[7])) + (8.906422717743473 * k3[7])) + (0.2784090909090909 * k4[7])) + ((-0.2735313036020583) * k5[7]))));
    ys[8] = (y[8] + (h * (((((2.8462752525252526 * k1[8]) + ((-10.757575757575758) * k2[8])) + (8.906422717743473 * k3[8])) + (0.2784090909090909 * k4[8])) + ((-0.2735313036020583) * k5[8]))));
    ys[9] = (y[9] + (h * (((((2.8462752525252526 * k1[9]) + ((-10.757575757575758) * k2[9])) + (8.906422717743473 * k3[9])) + (0.2784090909090909 * k4[9])) + ((-0.2735313036020583) * k5[9]))));
    ys[10] = (y[10] + (h * (((((2.8462752525252526 * k1[10]) + ((-10.757575757575758) * k2[10])) + (8.906422717743473 * k3[10])) + (0.2784090909090909 * k4[10])) + ((-0.2735313036020583) * k5[10]))));
    ys[11] = (y[11] + (h * (((((2.8462752525252526 * k1[11]) + ((-10.757575757575758) * k2[11])) + (8.906422717743473 * k3[11])) + (0.2784090909090909 * k4[11])) + ((-0.2735313036020583) * k5[11]))));
    if ((s = robot_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    y_new[0] = (y[0] + (h * (((((0.09114583333333333 * k1[0]) + (0.44923629829290207 * k3[0])) + (0.6510416666666666 * k4[0])) + ((-0.322376179245283) * k5[0])) + (0.13095238095238096 * k6[0]))));
    y_new[1] = (y[1] + (h * (((((0.09114583333333333 * k1[1]) + (0.44923629829290207 * k3[1])) + (0.6510416666666666 * k4[1])) + ((-0.322376179245283) * k5[1])) + (0.13095238095238096 * k6[1]))));
    y_new[2] = (y[2] + (h * (((((0.09114583333333333 * k1[2]) + (0.44923629829290207 * k3[2])) + (0.6510416666666666 * k4[2])) + ((-0.322376179245283) * k5[2])) + (0.13095238095238096 * k6[2]))));
    y_new[3] = (y[3] + (h * (((((0.09114583333333333 * k1[3]) + (0.44923629829290207 * k3[3])) + (0.6510416666666666 * k4[3])) + ((-0.322376179245283) * k5[3])) + (0.13095238095238096 * k6[3]))));
    y_new[4] = (y[4] + (h * (((((0.09114583333333333 * k1[4]) + (0.44923629829290207 * k3[4])) + (0.6510416666666666 * k4[4])) + ((-0.322376179245283) * k5[4])) + (0.13095238095238096 * k6[4]))));
    y_new[5] = (y[5] + (h * (((((0.09114583333333333 * k1[5]) + (0.44923629829290207 * k3[5])) + (0.6510416666666666 * k4[5])) + ((-0.322376179245283) * k5[5])) + (0.13095238095238096 * k6[5]))));
    y_new[6] = (y[6] + (h * (((((0.09114583333333333 * k1[6]) + (0.44923629829290207 * k3[6])) + (0.6510416666666666 * k4[6])) + ((-0.322376179245283) * k5[6])) + (0.13095238095238096 * k6[6]))));
    y_new[7] = (y[7] + (h * (((((0.09114583333333333 * k1[7]) + (0.44923629829290207 * k3[7])) + (0.6510416666666666 * k4[7])) + ((-0.322376179245283) * k5[7])) + (0.13095238095238096 * k6[7]))));
    y_new[8] = (y[8] + (h * (((((0.09114583333333333 * k1[8]) + (0.44923629829290207 * k3[8])) + (0.6510416666666666 * k4[8])) + ((-0.322376179245283) * k5[8])) + (0.13095238095238096 * k6[8]))));
    y_new[9] = (y[9] + (h * (((((0.09114583333333333 * k1[9]) + (0.44923629829290207 * k3[9])) + (0.6510416666666666 * k4[9])) + ((-0.322376179245283) * k5[9])) + (0.13095238095238096 * k6[9]))));
    y_new[10] = (y[10] + (h * (((((0.09114583333333333 * k1[10]) + (0.44923629829290207 * k3[10])) + (0.6510416666666666 * k4[10])) + ((-0.322376179245283) * k5[10])) + (0.13095238095238096 * k6[10]))));
    y_new[11] = (y[11] + (h * (((((0.09114583333333333 * k1[11]) + (0.44923629829290207 * k3[11])) + (0.6510416666666666 * k4[11])) + ((-0.322376179245283) * k5[11])) + (0.13095238095238096 * k6[11]))));
    /* stage 7, at the new state */
    if ((s = robot_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    e[0] = (h * ((((((0.0012326388888888888 * k1[0]) + ((-0.0042527702905061394) * k3[0])) + (0.03697916666666667 * k4[0])) + ((-0.05086379716981132) * k5[0])) + (0.0419047619047619 * k6[0])) + ((-0.025) * k7[0])));
    e[1] = (h * ((((((0.0012326388888888888 * k1[1]) + ((-0.0042527702905061394) * k3[1])) + (0.03697916666666667 * k4[1])) + ((-0.05086379716981132) * k5[1])) + (0.0419047619047619 * k6[1])) + ((-0.025) * k7[1])));
    e[2] = (h * ((((((0.0012326388888888888 * k1[2]) + ((-0.0042527702905061394) * k3[2])) + (0.03697916666666667 * k4[2])) + ((-0.05086379716981132) * k5[2])) + (0.0419047619047619 * k6[2])) + ((-0.025) * k7[2])));
    e[3] = (h * ((((((0.0012326388888888888 * k1[3]) + ((-0.0042527702905061394) * k3[3])) + (0.03697916666666667 * k4[3])) + ((-0.05086379716981132) * k5[3])) + (0.0419047619047619 * k6[3])) + ((-0.025) * k7[3])));
    e[4] = (h * ((((((0.0012326388888888888 * k1[4]) + ((-0.0042527702905061394) * k3[4])) + (0.03697916666666667 * k4[4])) + ((-0.05086379716981132) * k5[4])) + (0.0419047619047619 * k6[4])) + ((-0.025) * k7[4])));
    e[5] = (h * ((((((0.0012326388888888888 * k1[5]) + ((-0.0042527702905061394) * k3[5])) + (0.03697916666666667 * k4[5])) + ((-0.05086379716981132) * k5[5])) + (0.0419047619047619 * k6[5])) + ((-0.025) * k7[5])));
    e[6] = (h * ((((((0.0012326388888888888 * k1[6]) + ((-0.0042527702905061394) * k3[6])) + (0.03697916666666667 * k4[6])) + ((-0.05086379716981132) * k5[6])) + (0.0419047619047619 * k6[6])) + ((-0.025) * k7[6])));
    e[7] = (h * ((((((0.0012326388888888888 * k1[7]) + ((-0.0042527702905061394) * k3[7])) + (0.03697916666666667 * k4[7])) + ((-0.05086379716981132) * k5[7])) + (0.0419047619047619 * k6[7])) + ((-0.025) * k7[7])));
    e[8] = (h * ((((((0.0012326388888888888 * k1[8]) + ((-0.0042527702905061394) * k3[8])) + (0.03697916666666667 * k4[8])) + ((-0.05086379716981132) * k5[8])) + (0.0419047619047619 * k6[8])) + ((-0.025) * k7[8])));
    e[9] = (h * ((((((0.0012326388888888888 * k1[9]) + ((-0.0042527702905061394) * k3[9])) + (0.03697916666666667 * k4[9])) + ((-0.05086379716981132) * k5[9])) + (0.0419047619047619 * k6[9])) + ((-0.025) * k7[9])));
    e[10] = (h * ((((((0.0012326388888888888 * k1[10]) + ((-0.0042527702905061394) * k3[10])) + (0.03697916666666667 * k4[10])) + ((-0.05086379716981132) * k5[10])) + (0.0419047619047619 * k6[10])) + ((-0.025) * k7[10])));
    e[11] = (h * ((((((0.0012326388888888888 * k1[11]) + ((-0.0042527702905061394) * k3[11])) + (0.03697916666666667 * k4[11])) + ((-0.05086379716981132) * k5[11])) + (0.0419047619047619 * k6[11])) + ((-0.025) * k7[11])));
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
    ys[0] = (y[0] + (h * (0.2 * k1[0])));
    ys[1] = (y[1] + (h * (0.2 * k1[1])));
    if ((s = shaft_rhs(blk, ys, k2))) return s;
    /* stage 3 */
    ys[0] = (y[0] + (h * ((0.075 * k1[0]) + (0.225 * k2[0]))));
    ys[1] = (y[1] + (h * ((0.075 * k1[1]) + (0.225 * k2[1]))));
    if ((s = shaft_rhs(blk, ys, k3))) return s;
    /* stage 4 */
    ys[0] = (y[0] + (h * (((0.9777777777777777 * k1[0]) + ((-3.7333333333333334) * k2[0])) + (3.5555555555555554 * k3[0]))));
    ys[1] = (y[1] + (h * (((0.9777777777777777 * k1[1]) + ((-3.7333333333333334) * k2[1])) + (3.5555555555555554 * k3[1]))));
    if ((s = shaft_rhs(blk, ys, k4))) return s;
    /* stage 5 */
    ys[0] = (y[0] + (h * ((((2.9525986892242035 * k1[0]) + ((-11.595793324188385) * k2[0])) + (9.822892851699436 * k3[0])) + ((-0.2908093278463649) * k4[0]))));
    ys[1] = (y[1] + (h * ((((2.9525986892242035 * k1[1]) + ((-11.595793324188385) * k2[1])) + (9.822892851699436 * k3[1])) + ((-0.2908093278463649) * k4[1]))));
    if ((s = shaft_rhs(blk, ys, k5))) return s;
    /* stage 6 */
    ys[0] = (y[0] + (h * (((((2.8462752525252526 * k1[0]) + ((-10.757575757575758) * k2[0])) + (8.906422717743473 * k3[0])) + (0.2784090909090909 * k4[0])) + ((-0.2735313036020583) * k5[0]))));
    ys[1] = (y[1] + (h * (((((2.8462752525252526 * k1[1]) + ((-10.757575757575758) * k2[1])) + (8.906422717743473 * k3[1])) + (0.2784090909090909 * k4[1])) + ((-0.2735313036020583) * k5[1]))));
    if ((s = shaft_rhs(blk, ys, k6))) return s;
    /* fifth-order solution */
    y_new[0] = (y[0] + (h * (((((0.09114583333333333 * k1[0]) + (0.44923629829290207 * k3[0])) + (0.6510416666666666 * k4[0])) + ((-0.322376179245283) * k5[0])) + (0.13095238095238096 * k6[0]))));
    y_new[1] = (y[1] + (h * (((((0.09114583333333333 * k1[1]) + (0.44923629829290207 * k3[1])) + (0.6510416666666666 * k4[1])) + ((-0.322376179245283) * k5[1])) + (0.13095238095238096 * k6[1]))));
    /* stage 7, at the new state */
    if ((s = shaft_rhs(blk, y_new, k7))) return s;
    /* error estimate */
    e[0] = (h * ((((((0.0012326388888888888 * k1[0]) + ((-0.0042527702905061394) * k3[0])) + (0.03697916666666667 * k4[0])) + ((-0.05086379716981132) * k5[0])) + (0.0419047619047619 * k6[0])) + ((-0.025) * k7[0])));
    e[1] = (h * ((((((0.0012326388888888888 * k1[1]) + ((-0.0042527702905061394) * k3[1])) + (0.03697916666666667 * k4[1])) + ((-0.05086379716981132) * k5[1])) + (0.0419047619047619 * k6[1])) + ((-0.025) * k7[1])));
    /* error ratios; the caller reduces them to the norm */
    for (int j = 0; j < 2; j++) {
        const double a = fabs(y[j]);
        const double b = fabs(y_new[j]);
        ratio[j] = (e[j] / (atol + (rtol * ((a > b || a != a) ? a : b))));
    }
    return 0;
}

/* The models of otbot._ckernel.MODELS, which struct rollout's model
   indexes: the state size, the widths of the parameters, the held input
   and the pivot force in blk, the rhs and the DP5 attempt. */
struct model {
    long states, params, inputs, forces;
    int (*rhs)(const double *blk, const double *x, double *k);
    int (*attempt)(const double *blk, double h, double rtol, double atol, const double *y,
                   const double *k1, double *y_new, double *k7, double *ratio);
};

static const struct model MODELS[] = {
    {12, 14, 3, 2, robot_rhs, dp5_robot_attempt},
    {2, 2, 1, 0, shaft_rhs, dp5_shaft_attempt},
};

/* BLAS ddot and dgemv with 64-bit integers: numpy's dot of two float64
   vectors and its (3, 3) @ (3,) */
typedef double (*ddot_t)(long long, const double *, long long, const double *, long long);
typedef void (*dgemv_t)(int, int, long long, long long, double, const double *, long long,
                        const double *, long long, double, double *, long long);

static const double SAFETY = 0.9;
static const double MIN_FACTOR = 0.2;
static const double MAX_FACTOR = 10.0;
static const double ORDER_EXPONENT = -0.2;
static const double NONFINITE_FACTOR = 0.1;
static const double TIME_RESOLUTION = 1e-14;

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

/* numpy's add.reduce of the n (at most 12) doubles a, its pairwise sum:
   below 8 terms from the left, else eight interleaved partial sums added
   as a tree, then the terms left over (numpy's order up to 128 terms) */
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

/* math.sqrt(np.mean((v / scale) ** 2)) of integrator.initial_step */
static double rms(const double *v, const double *scale, long n)
{
    double sq[12];
    for (long c = 0; c < n; c++) {
        const double q = v[c] / scale[c];
        sq[c] = q * q;
    }
    return sqrt(pairwise_sum(sq, n) / (double)n);
}

/* integrator.initial_step, Hairer's guess of the first step, from the state
   r->x and its derivative r->k1 under the hold in r->blk: the guess into
   r->h and its second derivative counted in r->fevals, or the status where
   Python raises (the rhs's, or a zero divisor at d2 / h0 or at
   0.01 / max(d1, d2)). */
int first_step(struct rollout *r)
{
    const struct model *m = &MODELS[r->model];
    const long n = m->states;
    double scale[12], y1[12], f1[12];
    for (long c = 0; c < n; c++) scale[c] = r->atol + (r->rtol * fabs(r->x[c]));
    const double d0 = rms(r->x, scale, n), d1 = rms(r->k1, scale, n);
    const double h0 = (d0 < 1e-05 || d1 < 1e-05) ? 1e-06 : ((0.01 * d0) / d1);
    for (long c = 0; c < n; c++) y1[c] = r->x[c] + (h0 * r->k1[c]);
    const int s = m->rhs(r->blk, y1, f1);
    if (s) return s;
    for (long c = 0; c < n; c++) f1[c] = f1[c] - r->k1[c];
    if (h0 == 0.0) return 1;
    const double d2 = rms(f1, scale, n) / h0;
    double h1;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = py_max(1e-06, h0 * 0.001);
    } else {
        const double d = py_max(d1, d2);
        if (d == 0.0) return 1;
        h1 = pow(0.01 / d, 0.2);
    }
    r->h = py_min(100.0 * h0, h1);
    r->fevals += 1;
    return 0;
}

/* integrator.advance_segment of the model m from t to t1 on the hold in
   r->blk, from r->x, r->k1 and r->h: these and the counts move on, or a
   nonzero status returns. */
static int advance(struct rollout *r, const struct model *m, double t, double t1)
{
    const ddot_t ddot = (ddot_t)r->ddot;
    const long n = m->states;
    double y[2][12], k[2][12], ratio[12];
    int now = 0;
    long accepted = r->accepted, rejected = r->rejected, fevals = r->fevals;
    double h_next = r->h;
    copy(y[0], r->x, n);
    copy(k[0], r->k1, n);
    while (t < t1) {
        const double remaining = t1 - t;
        if (remaining <= TIME_RESOLUTION * py_max(1.0, fabs(t1))) {
            t = t1; /* a sliver below the time resolution */
            break;
        }
        const int clipped = h_next >= remaining;
        const double h = clipped ? remaining : h_next;
        /* written so that a NaN step underflows too */
        if (!(h >= TIME_RESOLUTION * py_max(1.0, fabs(t)))) return 3;
        const int s = m->attempt(r->blk, h, r->rtol, r->atol, y[now], k[now], y[!now], k[!now], ratio);
        if (s) return s;
        const double norm = sqrt(ddot(n, ratio, 1, ratio, 1) / (double)n);
        fevals += 6;
        if (!isfinite(norm)) {
            rejected += 1;
            h_next = NONFINITE_FACTOR * h;
            continue;
        }
        if (norm <= 1.0) {
            accepted += 1;
            t = clipped ? t1 : t + h;
            now = !now; /* FSAL */
            const double factor = norm == 0.0
                ? MAX_FACTOR : py_min(MAX_FACTOR, SAFETY * pow(norm, ORDER_EXPONENT));
            const double grown = h * factor;
            h_next = clipped ? py_max(h_next, grown) : grown;
        } else {
            rejected += 1;
            h_next = h * py_max(MIN_FACTOR, SAFETY * pow(norm, ORDER_EXPONENT));
        }
    }
    copy(r->x, y[now], n);
    copy(r->k1, k[now], n);
    r->h = h_next;
    r->accepted = accepted;
    r->rejected = rejected;
    r->fevals = fevals;
    return 0;
}

/* y = a @ v for a row-major 3x3 a, through numpy's dgemv: row-major (101),
   no transpose (111), alpha 1, beta 0 */
static void matvec(const struct rollout *r, const double *a, const double *v, double *y)
{
    ((dgemv_t)r->dgemv)(101, 111, 3, 3, 1.0, a, 3, v, 1, 0.0, y, 1);
}

/* control.computed_torque of the robot at the state r->x and the reference
   row r->instant: the torque into u and the row r->instant of u_traj and
   u_corr, with every operation in numpy's order; u_corr is zero without
   feedback. Where r->mbar and r->cbar are set, the task-space model goes
   into their row r->instant too. A nonzero status is where the task-space
   model raises. */
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
   the segment from the one before it (none at event 0; a call that ran
   event 0 first guesses the first step from its hold), the law at a
   control instant (or the torques held from the last one; the robot's
   only), the hold (a fresh first stage where the input bits change or a
   disturbance edge lies), then the output row. Returns 0, or the status of
   where Python raises. */
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
            copy(derivs + n * r->row, r->k1, n);
            copy(controls + nu * r->row, u, nu);
            r->row += 1;
        }
    }
    return 0;
}
